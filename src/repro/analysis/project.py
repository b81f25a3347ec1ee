"""Project model: parsed source files with waiver-comment extraction.

Every rule sees the same :class:`SourceFile` objects — one parse and one
comment scan per file, shared across rules.  Waivers are comments of the
form ``# lint: <tag>[, <tag>...]`` (anything after the tags, e.g. a
justification, is ignored); a waiver silences matching findings on its
own line and, for comment-only lines, on the line below.  Each rule has
exactly one tag (``Rule.waiver_tag``); there is no per-id form.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import AnalysisError

#: directories scanned relative to the project root, in report order
DEFAULT_ROOTS: Tuple[str, ...] = ("src/repro", "benchmarks", "tests")

_WAIVER_RE = re.compile(r"#\s*lint:\s*(?P<rest>.*)$")
_TAG_RE = re.compile(r"^[a-z][a-z0-9-]*$")


def parse_waiver_tags(comment: str) -> Set[str]:
    """Tags of one ``# lint:`` comment (empty set if it is not one).

    Tags are comma/space separated; scanning stops at the first token
    that is not a tag, so free-text justifications can follow inline.
    """
    match = _WAIVER_RE.search(comment)
    if match is None:
        return set()
    tags: Set[str] = set()
    for token in re.split(r"[,\s]+", match.group("rest")):
        if not token:
            continue
        if not _TAG_RE.match(token):
            break
        tags.add(token)
    return tags


@dataclass
class SourceFile:
    """One parsed Python file plus its waiver map."""

    path: Path
    relpath: str
    text: str
    tree: Optional[ast.Module]
    parse_error: Optional[str] = None
    #: line number -> waiver tags applying to findings on that line
    waivers: Dict[int, Set[str]] = field(default_factory=dict)
    _lines: Optional[List[str]] = None

    @property
    def lines(self) -> List[str]:
        if self._lines is None:
            self._lines = self.text.split("\n")
        return self._lines

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def _scan_waivers(text: str) -> Dict[int, Set[str]]:
    waivers: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return waivers
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        tags = parse_waiver_tags(tok.string)
        if not tags:
            continue
        line = tok.start[0]
        waivers.setdefault(line, set()).update(tags)
        # a comment-only line waives the next line of code as well
        if tok.line[: tok.start[1]].strip() == "":
            waivers.setdefault(line + 1, set()).update(tags)
    return waivers


def load_source_file(path: Path, relpath: str) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    tree: Optional[ast.Module] = None
    parse_error: Optional[str] = None
    try:
        tree = ast.parse(text, filename=relpath)
    except SyntaxError as exc:
        parse_error = f"{exc.msg} (line {exc.lineno})"
    return SourceFile(
        path=path,
        relpath=relpath,
        text=text,
        tree=tree,
        parse_error=parse_error,
        waivers=_scan_waivers(text),
    )


class Project:
    """All scanned files of one repository checkout."""

    def __init__(self, root: Path, files: Sequence[SourceFile]):
        self.root = root
        self.files = list(files)
        self._by_relpath = {sf.relpath: sf for sf in self.files}
        # linked interprocedural model; the engine sets it before any
        # graph rule runs (None for pure syntactic runs).  Typed loosely
        # to avoid a circular import with repro.analysis.callgraph.
        self.graph: Optional[object] = None

    def file(self, relpath: str) -> Optional[SourceFile]:
        return self._by_relpath.get(relpath)

    def __len__(self) -> int:
        return len(self.files)


def load_project(
    root: Path, roots: Sequence[str] = DEFAULT_ROOTS
) -> Project:
    """Parse every ``*.py`` under ``root``'s scan directories."""
    root = Path(root).resolve()
    if not root.is_dir():
        raise AnalysisError(f"project root {root} is not a directory")
    files: List[SourceFile] = []
    seen: Set[Path] = set()
    for sub in roots:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" in path.parts or path in seen:
                continue
            seen.add(path)
            relpath = path.relative_to(root).as_posix()
            files.append(load_source_file(path, relpath))
    if not files:
        raise AnalysisError(
            f"no Python files found under {root} (scanned {', '.join(roots)})"
        )
    return Project(root, files)
