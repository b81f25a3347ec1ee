"""Per-file function summaries: the unit the interprocedural engine links.

Every source file is distilled once into a plain-data *summary*: its
module name, resolved imports, every function definition (with the call
sites, raises and attribute writes the flow rules care about) and every
class (bases plus an attribute→type map for the checkpoint-reachability
rule).

Name resolution is deliberately split: summaries canonicalize what can
be resolved *locally* (import aliases, relative imports against the
module's package) and leave cross-file resolution (class hierarchies,
method dispatch) to :mod:`repro.analysis.callgraph`, which links the
summaries of the whole project.  The local half (:func:`dotted_name`,
:func:`module_imports`, :func:`canonical_path`) is shared with the
per-file rules.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from .project import SourceFile

# call-site kinds emitted by the summarizer (resolution happens at link
# time in callgraph.py):
#   name      bare-name call          ``helper(x)``
#   attr      dotted-path call        ``self.cache.decompress(...)``
#   method    unknown-receiver call   ``make().close()``
#   partial   functools.partial(...)  target recorded for a later call
#   ref       a name *reference* to a function (tables, callbacks)
#   dynamic   importlib/getattr indirection — documented as imprecise

#: canonical call paths that mark dynamic, statically-unresolvable dispatch
_DYNAMIC_CALLS = frozenset(
    {"importlib.import_module", "__import__", "getattr"}
)

#: attribute-value markers the checkpoint-purity rule looks for
_MARKER_LAMBDA = "lambda"
_MARKER_GENERATOR = "generator"
_MARKER_ITERATOR = "iterator"
_MARKER_OPEN_FILE = "open-file"
_MARKER_CLOCK = "clock-reading"
_MARKER_MODULE = "module-object"

#: call roots whose instances never pickle (threads, sockets, processes)
_UNPICKLABLE_ROOTS = ("threading.", "socket.", "subprocess.", "multiprocessing.")

#: the one clock table.  Elapsed-time clocks: CSD003 allows them, since
#: measuring a duration changes no computed result, but a reading means
#: nothing in another process, so CSD012 marks an attribute holding one
ELAPSED_CLOCKS = frozenset(
    {
        f"time.{clock}{suffix}"
        for clock in ("perf_counter", "monotonic", "process_time")
        for suffix in ("", "_ns")
    }
)

#: wall-clock and entropy reads: CSD003 forbids them, CSD012 marks them
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: modules every call of which draws ambient entropy
ENTROPY_MODULES = ("secrets.",)


def is_wall_clock_call(path: str) -> bool:
    """Whether a canonical call path reads the wall clock or entropy."""
    return path in WALL_CLOCK_CALLS or path.startswith(ENTROPY_MODULES)


#: str/bytes text-codec methods share names with column codecs; a call
#: like ``name_b.decode("utf-8")`` is marked so decode rules skip it
_TEXT_ENCODINGS = frozenset(
    {"utf-8", "utf8", "ascii", "latin-1", "latin1", "utf-16", "cp1252"}
)


def module_name_for(relpath: str) -> str:
    """Dotted module name of a scanned file (``src/`` layout aware)."""
    path = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve_relative(module: str, is_package: bool, level: int) -> str:
    """The absolute package a ``from ...`` import of ``level`` targets."""
    base = module if is_package else module.rsplit(".", 1)[0]
    parts = base.split(".") if base else []
    drop = level - 1
    if drop:
        parts = parts[: max(0, len(parts) - drop)]
    return ".".join(parts)


def module_imports(
    tree: ast.Module, module: str, is_package: bool
) -> Dict[str, str]:
    """Local name -> canonical dotted path, relative imports resolved."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else local
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                pkg = _resolve_relative(module, is_package, node.level)
                sub = node.module or ""
                base = f"{pkg}.{sub}" if pkg and sub else (pkg or sub)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


def canonical_path(path: str, aliases: Dict[str, str]) -> str:
    """``path`` with its head name replaced by what it was imported as."""
    head, _, rest = path.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def _annotation_names(node: Optional[ast.AST]) -> List[str]:
    """Class-looking identifiers inside a type annotation."""
    if node is None:
        return []
    names: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            path = dotted_name(sub)
            if path is not None:
                names.append(path)
        elif isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.append(sub.value)  # string annotation
    # keep only identifiers that look like class names (CamelCase leaf)
    out = []
    for name in names:
        leaf = name.split(".")[-1].split("[")[0]
        if leaf[:1].isupper():
            out.append(name)
    return out


class _Summarizer(ast.NodeVisitor):
    """Single-pass AST walk producing the summary document."""

    def __init__(self, module: str, aliases: Dict[str, str]):
        self.module = module
        self.aliases = aliases
        self.functions: List[Dict[str, Any]] = []
        self.classes: List[Dict[str, Any]] = []
        #: summary docs of the enclosing executable scopes (module body,
        #: functions, lambdas), innermost last
        self._scopes: List[Dict[str, Any]] = []
        self._classes: List[Dict[str, Any]] = []
        self._used_qualnames: Set[str] = set()
        #: qualname parents: functions AND classes interleave here, so a
        #: method's qualname is class-qualified (``mod.<module>.C.run``)
        self._namespace: List[str] = []

    # ----- scope bookkeeping -------------------------------------------

    def _push_function(
        self,
        name: str,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda],
        is_lambda: bool = False,
    ) -> None:
        parent = self._namespace[-1] if self._namespace else self.module
        qualname = f"{parent}.{name}"
        # property/setter pairs, conditional redefinitions and same-name
        # overloads share a dotted path; disambiguate by line so every
        # definition stays a distinct graph node
        if qualname in self._used_qualnames:
            qualname = f"{qualname}:{node.lineno}"
            suffix = 0
            while qualname in self._used_qualnames:
                suffix += 1
                qualname = f"{parent}.{name}:{node.lineno}.{suffix}"
        self._used_qualnames.add(qualname)
        decorators = []
        if not is_lambda:
            for dec in getattr(node, "decorator_list", []):
                target = dec.func if isinstance(dec, ast.Call) else dec
                path = dotted_name(target)
                if path is not None:
                    decorators.append(canonical_path(path, self.aliases))
        doc: Dict[str, Any] = {
            "qualname": qualname,
            "name": name,
            "line": node.lineno,
            "cls": self._classes[-1]["qualname"] if self._classes else None,
            "lambda": is_lambda,
            "decorators": decorators,
            "params": self._param_types(node),
            "sites": [],
            "raises": [],
            "refs": [],
            "dynamic": False,
        }
        self.functions.append(doc)
        self._scopes.append(doc)
        self._namespace.append(qualname)

    def _pop_function(self) -> None:
        self._scopes.pop()
        self._namespace.pop()

    def _param_types(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    ) -> Dict[str, List[str]]:
        if isinstance(node, ast.Lambda):
            return {}
        types: Dict[str, List[str]] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            names = [
                canonical_path(n, self.aliases)
                for n in _annotation_names(arg.annotation)
            ]
            if names:
                types[arg.arg] = names
        return types

    def _site(self, doc: Dict[str, Any]) -> None:
        if self._scopes:
            self._scopes[-1]["sites"].append(doc)

    # ----- definitions --------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        doc: Dict[str, Any] = {
            "qualname": f"{self.module}.<module>",
            "name": "<module>",
            "line": 1,
            "cls": None,
            "lambda": False,
            "decorators": [],
            "params": {},
            "sites": [],
            "raises": [],
            "refs": [],
            "dynamic": False,
        }
        self.functions.append(doc)
        self._scopes.append(doc)
        self._namespace.append(doc["qualname"])
        self.generic_visit(node)
        self._pop_function()

    def _visit_functiondef(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self._push_function(node.name, node)
        # decorator expressions execute in the enclosing scope; the body
        # belongs to the new scope
        self.generic_visit(node)
        self._pop_function()

    visit_FunctionDef = _visit_functiondef
    visit_AsyncFunctionDef = _visit_functiondef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._push_function(f"<lambda:{node.lineno}>", node, is_lambda=True)
        self.generic_visit(node)
        self._pop_function()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        parent = self._namespace[-1] if self._namespace else self.module
        qualname = f"{parent}.{node.name}"
        doc: Dict[str, Any] = {
            "qualname": qualname,
            "name": node.name,
            "line": node.lineno,
            "bases": [
                canonical_path(p, self.aliases)
                for p in (dotted_name(b) for b in node.bases)
                if p is not None
            ],
            "attrs": {},
        }
        self.classes.append(doc)
        self._classes.append(doc)
        self._namespace.append(qualname)
        self._collect_class_body_attrs(node, doc)
        self.generic_visit(node)
        self._namespace.pop()
        self._classes.pop()

    def _collect_class_body_attrs(
        self, node: ast.ClassDef, doc: Dict[str, Any]
    ) -> None:
        """Annotated class-body fields (dataclass fields, slots)."""
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                types = [
                    canonical_path(n, self.aliases)
                    for n in _annotation_names(stmt.annotation)
                ]
                self._record_attr(
                    doc, stmt.target.id, stmt.lineno, types, stmt.value
                )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._record_attr(
                            doc, target.id, stmt.lineno, [], stmt.value
                        )

    def _record_attr(
        self,
        cls_doc: Dict[str, Any],
        attr: str,
        line: int,
        types: Sequence[str],
        value: Optional[ast.AST],
    ) -> None:
        entry = cls_doc["attrs"].setdefault(
            attr, {"types": [], "markers": [], "line": line}
        )
        for t in types:
            if t not in entry["types"]:
                entry["types"].append(t)
        for marker in self._value_markers(value):
            if marker not in entry["markers"]:
                entry["markers"].append(marker)
        for t in self._value_types(value):
            if t not in entry["types"]:
                entry["types"].append(t)

    def _value_types(self, value: Optional[ast.AST]) -> List[str]:
        """Constructor-call types of an attribute's assigned value."""
        if isinstance(value, ast.Call):
            path = dotted_name(value.func)
            if path is not None:
                canonical = canonical_path(path, self.aliases)
                leaf = canonical.split(".")[-1]
                if leaf[:1].isupper():
                    return [canonical]
        elif isinstance(value, ast.Name):
            # ``self.x = param`` picks up the parameter's annotation
            params = self._scopes[-1]["params"] if self._scopes else {}
            return list(params.get(value.id, []))
        elif isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            out: List[str] = []
            for elt in value.elts:
                out.extend(self._value_types(elt))
            return out
        return []

    def _value_markers(self, value: Optional[ast.AST]) -> List[str]:
        """Pickle-hostile / clock-reading markers of an assigned value."""
        if isinstance(value, ast.Lambda):
            return [_MARKER_LAMBDA]
        if isinstance(value, ast.GeneratorExp):
            return [_MARKER_GENERATOR]
        path = dotted_name(value.func) if isinstance(value, ast.Call) else None
        if path is None:
            return []
        canonical = canonical_path(path, self.aliases)
        if canonical == "open":
            return [_MARKER_OPEN_FILE]
        if canonical == "iter":
            return [_MARKER_ITERATOR]
        if canonical in ELAPSED_CLOCKS or is_wall_clock_call(canonical):
            return [_MARKER_CLOCK]
        if canonical in _DYNAMIC_CALLS:
            return [_MARKER_MODULE]
        if canonical.startswith(_UNPICKLABLE_ROOTS):
            return ["unpicklable:" + canonical.split(".")[0]]
        return []

    # ----- attribute writes (``self.x = ...``) -------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._maybe_self_attr(node.targets, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            self._classes
            and isinstance(node.target, ast.Attribute)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == "self"
        ):
            types = [
                canonical_path(n, self.aliases)
                for n in _annotation_names(node.annotation)
            ]
            self._record_attr(
                self._classes[-1],
                node.target.attr,
                node.lineno,
                types,
                node.value,
            )
        self.generic_visit(node)

    def _maybe_self_attr(
        self, targets: Sequence[ast.AST], value: ast.AST, line: int
    ) -> None:
        if not self._classes:
            return
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self._record_attr(
                    self._classes[-1], target.attr, line, [], value
                )

    # ----- call sites / raises / references ----------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        line = node.lineno
        if isinstance(func, ast.Name):
            canonical = self.aliases.get(func.id, func.id)
            if canonical in _DYNAMIC_CALLS:
                if self._scopes:
                    self._scopes[-1]["dynamic"] = True
                self._site({"kind": "dynamic", "line": line})
            elif canonical == "partial" or canonical == "functools.partial":
                self._partial_site(node, line)
            else:
                self._site({"kind": "name", "name": func.id, "line": line})
        elif isinstance(func, ast.Attribute):
            path = dotted_name(func)
            if path is None:
                self._site(
                    {"kind": "method", "method": func.attr, "line": line}
                )
            else:
                canonical = canonical_path(path, self.aliases)
                if canonical in _DYNAMIC_CALLS:
                    if self._scopes:
                        self._scopes[-1]["dynamic"] = True
                    self._site({"kind": "dynamic", "line": line})
                elif canonical == "functools.partial":
                    self._partial_site(node, line)
                else:
                    site = {"kind": "attr", "path": canonical, "line": line}
                    if self._is_text_codec_call(func.attr, node):
                        site["strcodec"] = True
                    self._site(site)
        else:
            # call on an arbitrary expression: nothing to resolve
            pass
        self.generic_visit(node)

    def _partial_site(self, node: ast.Call, line: int) -> None:
        target: Optional[Dict[str, Any]] = None
        if node.args:
            inner = node.args[0]
            if isinstance(inner, ast.Name):
                target = {"kind": "name", "name": inner.id}
            else:
                path = dotted_name(inner)
                if path is not None:
                    target = {
                        "kind": "attr",
                        "path": canonical_path(path, self.aliases),
                    }
        site: Dict[str, Any] = {"kind": "partial", "line": line}
        if target is not None:
            site["target"] = target
        self._site(site)

    @staticmethod
    def _is_text_codec_call(attr: str, node: ast.Call) -> bool:
        if attr not in ("decode", "encode"):
            return False
        if not node.args and not node.keywords:
            # bare .decode()/.encode() defaults to utf-8 only on
            # str/bytes; column codecs always take payload arguments,
            # so argument-less calls stay suspicious
            return False
        first = node.args[0] if node.args else None
        return (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value.lower() in _TEXT_ENCODINGS
        )

    def visit_Raise(self, node: ast.Raise) -> None:
        if node.exc is not None and self._scopes:
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            path = dotted_name(exc)
            if path is not None:
                name = path.split(".")[-1]
                # re-raising a caught lowercase variable is not a new type
                if name[:1].isupper():
                    self._scopes[-1]["raises"].append(
                        {
                            "name": name,
                            "path": canonical_path(path, self.aliases),
                            "line": node.lineno,
                        }
                    )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # bare-name *references* in load context pick up functions used
        # as values: rule tables, callbacks, map(fn, ...) arguments.
        # Deduped per scope; most never resolve to a function and are
        # dropped at link time.
        if isinstance(node.ctx, ast.Load) and self._scopes:
            refs = self._scopes[-1]["refs"]
            if node.id not in refs:
                refs.append(node.id)
        self.generic_visit(node)


def summarize_file(sf: SourceFile) -> Dict[str, Any]:
    """Summarize one parsed source file (empty doc if it fails to parse)."""
    module = module_name_for(sf.relpath)
    doc: Dict[str, Any] = {
        "path": sf.relpath,
        "module": module,
        "imports": {},
        "functions": [],
        "classes": [],
    }
    if sf.tree is None:
        return doc
    is_package = sf.relpath.endswith("/__init__.py")
    aliases = module_imports(sf.tree, module, is_package)
    walker = _Summarizer(module, aliases)
    walker.visit(sf.tree)
    doc["imports"] = aliases
    doc["functions"] = walker.functions
    doc["classes"] = walker.classes
    return doc


__all__ = [
    "ELAPSED_CLOCKS",
    "WALL_CLOCK_CALLS",
    "canonical_path",
    "dotted_name",
    "is_wall_clock_call",
    "module_imports",
    "module_name_for",
    "summarize_file",
]
