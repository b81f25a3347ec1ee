"""Project-wide symbol table and call graph, linked from file summaries.

The linker takes the per-file summaries of :mod:`.summaries` and builds
one :class:`CallGraph` over the whole checkout: a node per function
definition (module bodies count — decorator application and ``RULES``
tables run at import time) and an edge per resolvable call site,
function reference, ``functools.partial`` target or decorator
application.

Resolution is *static and conservative*.  What can be resolved
precisely is: bare names through the lexical scope chain and the
module's imports, ``self.method`` through the class hierarchy,
``self.attr.method`` and annotated-parameter receivers through the
attribute/parameter type map, and dotted module paths through the
project module index.  Calls on receivers with no inferable type fall
back to *class-hierarchy analysis* (CHA): an edge to every project
method of that name, minus an ambient-name blocklist (``get``, ``items``
…) that would otherwise wire every dict lookup into the graph.
``importlib``/``getattr`` indirection is not resolved at all — the
calling function is marked ``dynamic`` and exported as a known-imprecise
edge of the analysis.  Class names resolve in one place,
:meth:`CallGraph.resolve_class`, for the linker and the rules alike.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .project import Project
from .summaries import summarize_file

GRAPH_SCHEMA_VERSION = 3

#: method names resolved by CHA only when nothing better is known; these
#: ambient names (dict/list/str/set/file protocol) would otherwise tie
#: every container access into the graph
AMBIENT_METHODS = frozenset(
    {
        "get",
        "items",
        "keys",
        "values",
        "append",
        "add",
        "pop",
        "popleft",
        "update",
        "extend",
        "sort",
        "index",
        "count",
        "copy",
        "clear",
        "join",
        "split",
        "strip",
        "startswith",
        "endswith",
        "format",
        "encode",
        "read",
        "write",
        "close",
        "flush",
        "setdefault",
        "discard",
        "remove",
        "insert",
        "lower",
        "upper",
        "replace",
    }
)

#: receiver names conventionally typed in this codebase; used only when
#: no annotation or attribute type says otherwise
_RECEIVER_HINTS: Dict[str, Tuple[str, ...]] = {
    "cache": ("DecodeCache",),
    "decode_cache": ("DecodeCache",),
}


@dataclass
class Edge:
    """One resolved call-graph edge."""

    caller: str
    callee: str
    line: int
    kind: str  # call | method | cha | partial | ref | decorator

    def to_doc(self) -> Dict[str, Any]:
        return {
            "caller": self.caller,
            "callee": self.callee,
            "line": self.line,
            "kind": self.kind,
        }


@dataclass
class FunctionNode:
    """One function definition (or module body) in the graph."""

    qualname: str
    module: str
    relpath: str
    name: str
    line: int
    cls: Optional[str]
    is_lambda: bool
    dynamic: bool
    summary: Dict[str, Any]

    @property
    def kind(self) -> str:
        if self.name == "<module>":
            return "module"
        if self.is_lambda:
            return "lambda"
        return "method" if self.cls else "function"


@dataclass
class ClassNode:
    """One class definition with its attribute/type map."""

    qualname: str
    module: str
    relpath: str
    name: str
    line: int
    bases: List[str]
    #: attr name -> {"types": [qualnames], "markers": [...], "line": int}
    attrs: Dict[str, Dict[str, Any]]
    methods: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """The linked interprocedural model of one project checkout."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        self.edges: List[Edge] = []
        self._out: Dict[str, List[Edge]] = {}
        self._in: Dict[str, List[Edge]] = {}
        self.modules: Set[str] = set()
        #: module -> {top-level name -> function/class qualname}
        self.scopes: Dict[str, Dict[str, str]] = {}
        #: module -> {local name -> canonical dotted path it imports}
        self.imports: Dict[str, Dict[str, str]] = {}
        #: class qualname -> qualnames of its direct subclasses, built on
        #: first use (every class is indexed before anything resolves)
        self._children: Optional[Dict[str, List[str]]] = None
        #: independent AST count of defs under ``src/repro`` (coverage
        #: denominator, set by :func:`build_callgraph`)
        self.defined_src_functions = 0

    # ----- queries -----------------------------------------------------

    def callees(self, qualname: str) -> List[Edge]:
        return self._out.get(qualname, [])

    def callers(self, qualname: str) -> List[Edge]:
        return self._in.get(qualname, [])

    def function(self, qualname: str) -> Optional[FunctionNode]:
        return self.functions.get(qualname)

    def functions_in(self, relpath_prefixes: Sequence[str]) -> List[FunctionNode]:
        return [
            node
            for node in self.functions.values()
            if any(
                node.relpath == p or node.relpath.startswith(p)
                for p in relpath_prefixes
            )
        ]

    def resolve_class(self, module: str, path: str) -> Optional[str]:
        """A class path as written in ``module`` -> class qualname.

        Tries a qualname, then the top-level names of the module the
        path names (``module`` itself for a bare name), following that
        module's imports through re-exports; only then the one project
        class with the path's leaf name.
        """
        leaf = path.split(".")[-1]
        seen: Set[str] = set()
        while path not in seen:
            seen.add(path)
            if path in self.classes:
                return path
            owner, _, name = path.rpartition(".")
            owner = owner or module
            found = self.scopes.get(owner, {}).get(name)
            if found in self.classes:
                return found
            alias = self.imports.get(owner, {}).get(name)
            if alias is None:
                break
            path = alias
        matches = [q for q, c in self.classes.items() if c.name == leaf]
        return matches[0] if len(matches) == 1 else None

    def subclasses(self, roots: Iterable[str]) -> Set[str]:
        """Qualnames of classes transitively deriving from ``roots``."""
        if self._children is None:
            self._children = {}
            for cls in self.classes.values():
                for base in cls.bases:
                    parent = self.resolve_class(cls.module, base)
                    if parent is not None:
                        self._children.setdefault(parent, []).append(cls.qualname)
        seen: Set[str] = set()
        frontier = deque(roots)
        while frontier:
            for sub in self._children.get(frontier.popleft(), []):
                if sub not in seen:
                    seen.add(sub)
                    frontier.append(sub)
        return seen

    def reachable(
        self,
        entries: Iterable[str],
        stop: Optional[Set[str]] = None,
    ) -> Dict[str, Optional[str]]:
        """BFS closure over call edges: node -> BFS parent (entry -> None).

        ``stop`` nodes are never *traversed through* (their callees stay
        unreached via them) but are themselves recorded as reached, so a
        sanitizer both terminates the search and stays inspectable.
        """
        stop = stop or set()
        parents: Dict[str, Optional[str]] = {}
        frontier = deque()
        for entry in entries:
            if entry in self.functions and entry not in parents:
                parents[entry] = None
                if entry not in stop:
                    frontier.append(entry)
        while frontier:
            current = frontier.popleft()
            for edge in self.callees(current):
                nxt = edge.callee
                if nxt in parents or nxt not in self.functions:
                    continue
                parents[nxt] = current
                if nxt not in stop:
                    frontier.append(nxt)
        return parents

    @staticmethod
    def path_to(parents: Dict[str, Optional[str]], node: str) -> List[str]:
        """Witness path from some entry to ``node`` (entry first)."""
        path = [node]
        seen = {node}
        current: Optional[str] = node
        while current is not None:
            current = parents.get(current)
            if current is None or current in seen:
                break
            path.append(current)
            seen.add(current)
        return list(reversed(path))

    # ----- exports -----------------------------------------------------

    def coverage(self, prefix: str = "src/repro/") -> Dict[str, Any]:
        """How many of the project's defs under ``prefix`` became nodes.

        The denominator is an independent raw AST count (every
        FunctionDef/AsyncFunctionDef/Lambda under ``prefix``), so a
        summarizer that silently drops definitions shows up as a ratio
        below 1.0 rather than as a self-consistent lie.
        """
        in_scope = [
            n
            for n in self.functions.values()
            if n.relpath.startswith(prefix) and n.name != "<module>"
        ]
        defined = self.defined_src_functions
        return {
            "prefix": prefix,
            "functions_defined": defined,
            "functions_in_graph": len(in_scope),
            "ratio": (len(in_scope) / defined) if defined else 1.0,
            "graph_nodes": len(self.functions),
            "edges": len(self.edges),
        }

    def to_doc(self) -> Dict[str, Any]:
        """Schema-versioned JSON document of the whole graph."""
        return {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "modules": sorted(self.modules),
            "functions": [
                {
                    "qualname": n.qualname,
                    "module": n.module,
                    "path": n.relpath,
                    "line": n.line,
                    "kind": n.kind,
                    "dynamic": n.dynamic,
                }
                for n in sorted(
                    self.functions.values(), key=lambda n: n.qualname
                )
            ],
            "classes": [
                {
                    "qualname": c.qualname,
                    "path": c.relpath,
                    "line": c.line,
                    "bases": c.bases,
                    "attrs": c.attrs,
                }
                for c in sorted(self.classes.values(), key=lambda c: c.qualname)
            ],
            "edges": [e.to_doc() for e in self.edges],
            "coverage": self.coverage(),
        }


class _Linker:
    """Resolves summary call sites into graph edges."""

    def __init__(self, summaries: Sequence[Dict[str, Any]]):
        self.summaries = summaries
        self.graph = CallGraph()
        #: method name -> [method qualnames] (CHA index)
        self._methods_named: Dict[str, List[str]] = {}
        #: parent scope of each function (lexical)
        self._parent: Dict[str, str] = {}

    # ----- index construction ------------------------------------------

    def build(self) -> CallGraph:
        for doc in self.summaries:
            self._index_file(doc)
        self._index_methods()
        for doc in self.summaries:
            for fdoc in doc["functions"]:
                self._link_function(doc, fdoc)
        return self.graph

    def _index_file(self, doc: Dict[str, Any]) -> None:
        module = doc["module"]
        # top-level names live in the synthetic module-body node's scope
        module_body = f"{module}.<module>"
        self.graph.modules.add(module)
        self.graph.imports[module] = doc.get("imports", {})
        scope = self.graph.scopes.setdefault(module, {})
        for fdoc in doc["functions"]:
            node = FunctionNode(
                qualname=fdoc["qualname"],
                module=module,
                relpath=doc["path"],
                name=fdoc["name"],
                line=fdoc["line"],
                cls=fdoc.get("cls"),
                is_lambda=fdoc.get("lambda", False),
                dynamic=fdoc.get("dynamic", False),
                summary=fdoc,
            )
            self.graph.functions[node.qualname] = node
            parent = node.qualname.rsplit(".", 1)[0]
            self._parent[node.qualname] = parent
            if parent == module_body and node.name != "<module>":
                scope[node.name] = node.qualname
        for cdoc in doc["classes"]:
            cls = ClassNode(
                qualname=cdoc["qualname"],
                module=module,
                relpath=doc["path"],
                name=cdoc["name"],
                line=cdoc["line"],
                bases=list(cdoc.get("bases", [])),
                attrs=dict(cdoc.get("attrs", {})),
            )
            self.graph.classes[cls.qualname] = cls
            parent = cls.qualname.rsplit(".", 1)[0]
            self._parent[cls.qualname] = parent
            if parent == module_body:
                scope[cls.name] = cls.qualname

    def _index_methods(self) -> None:
        for node in self.graph.functions.values():
            if node.cls is not None:
                self._methods_named.setdefault(node.name, []).append(
                    node.qualname
                )
                cls = self.graph.classes.get(node.cls)
                if cls is not None:
                    cls.methods[node.name] = node.qualname

    # ----- resolution helpers ------------------------------------------

    def _resolve_import_path(self, module: str, path: str) -> Optional[str]:
        """A canonical dotted path -> function/class qualname, if internal."""
        if path in self.graph.functions:
            return path
        if path in self.graph.classes:
            return self._class_init(path)
        # longest-module-prefix match: repro.core.engine.CompressStreamDB.run
        parts = path.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod not in self.graph.scopes:
                continue
            rest = parts[cut:]
            scope = self.graph.scopes[mod]
            head = scope.get(rest[0])
            if head is None:
                # re-exported name (``from .x import f`` in __init__)
                alias = self.graph.imports.get(mod, {}).get(rest[0])
                if alias is not None:
                    return self._resolve_import_path(
                        mod, ".".join([alias] + rest[1:])
                    )
                return None
            if len(rest) == 1:
                if head in self.graph.classes:
                    return self._class_init(head)
                return head
            if head in self.graph.classes and len(rest) == 2:
                return self._method_on_class(head, rest[1])
            return None
        return None

    def _class_init(self, cls_qualname: str) -> Optional[str]:
        """Constructing a class calls its (possibly inherited) __init__."""
        resolved = self._method_on_class(cls_qualname, "__init__")
        return resolved or cls_qualname + ".__init__"

    def _mro(self, cls_qualname: str) -> List[str]:
        """Linearized ancestry (best effort, name-resolved bases)."""
        out: List[str] = []
        frontier = deque([cls_qualname])
        seen: Set[str] = set()
        while frontier:
            current = frontier.popleft()
            if current in seen:
                continue
            seen.add(current)
            cls = self.graph.classes.get(current)
            if cls is None:
                continue
            out.append(current)
            for base in cls.bases:
                resolved = self.graph.resolve_class(cls.module, base)
                if resolved is not None:
                    frontier.append(resolved)
        return out

    def _method_on_class(
        self, cls_qualname: str, method: str
    ) -> Optional[str]:
        for ancestor in self._mro(cls_qualname):
            cls = self.graph.classes.get(ancestor)
            if cls and method in cls.methods:
                return cls.methods[method]
        return None

    def _virtual_targets(self, cls_qualname: str, method: str) -> List[str]:
        """Static + virtual dispatch: the method on the class, its
        ancestors (inherited) and its descendants (overrides)."""
        targets: List[str] = []
        base = self._method_on_class(cls_qualname, method)
        if base is not None:
            targets.append(base)
        for sub in self.graph.subclasses([cls_qualname]):
            cls = self.graph.classes.get(sub)
            if cls and method in cls.methods:
                targets.append(cls.methods[method])
        return list(dict.fromkeys(targets))

    def _lexical_lookup(self, qualname: str, name: str) -> Optional[str]:
        """Resolve a bare name through enclosing scopes then the module."""
        scope = self._parent.get(qualname)
        while scope is not None:
            if scope in self.graph.classes:
                # class bodies are not visible as bare names from methods
                scope = self._parent.get(scope)
                continue
            candidate = f"{scope}.{name}"
            if candidate in self.graph.functions:
                return candidate
            if scope.endswith(".<module>"):
                module = scope[: -len(".<module>")]
                target = self.graph.scopes.get(module, {}).get(name)
                if target is not None:
                    if target in self.graph.classes:
                        return self._class_init(target)
                    return target
                break
            scope = self._parent.get(scope)
        return None

    def _receiver_types(
        self, fdoc: Dict[str, Any], module: str, head: str
    ) -> List[str]:
        """Candidate class qualnames for a receiver name."""
        out: List[str] = []
        for path in fdoc.get("params", {}).get(head, []):
            resolved = self.graph.resolve_class(module, path)
            if resolved is not None:
                out.append(resolved)
        if not out:
            for hint in _RECEIVER_HINTS.get(head, ()):
                resolved = self.graph.resolve_class(module, hint)
                if resolved is not None:
                    out.append(resolved)
        return out

    # ----- linking one function ----------------------------------------

    def _add_edge(
        self, caller: str, callee: Optional[str], line: int, kind: str
    ) -> None:
        if callee is None or callee not in self.graph.functions:
            return
        if callee == caller:
            return
        edge = Edge(caller=caller, callee=callee, line=line, kind=kind)
        self.graph.edges.append(edge)
        self.graph._out.setdefault(caller, []).append(edge)
        self.graph._in.setdefault(callee, []).append(edge)

    def _link_function(
        self, doc: Dict[str, Any], fdoc: Dict[str, Any]
    ) -> None:
        module = doc["module"]
        qualname = fdoc["qualname"]
        node = self.graph.functions[qualname]
        imports = self.graph.imports.get(module, {})

        # nested definitions: defining scope -> inner function
        for other in doc["functions"]:
            if self._parent.get(other["qualname"]) == qualname:
                self._add_edge(
                    qualname, other["qualname"], other["line"], "ref"
                )

        # decorator application edges
        decorator_heads: Set[str] = set()
        for dec in fdoc.get("decorators", []):
            decorator_heads.add(dec.split(".")[0])
            target = self._resolve_import_path(module, dec)
            if target is None:
                target = self._lexical_lookup(qualname, dec.split(".")[0])
            self._add_edge(qualname, target, fdoc["line"], "decorator")

        for site in fdoc.get("sites", []):
            self._link_site(node, module, qualname, fdoc, imports, site)

        # function references (tables, callbacks): resolve against the
        # lexical scope; unresolvable names silently drop.  Names already
        # consumed as decorators keep their more specific edge kind.
        for name in fdoc.get("refs", []):
            if name in decorator_heads:
                continue
            target = self._lexical_lookup(qualname, name)
            if target is not None and target != qualname:
                self._add_edge(qualname, target, fdoc["line"], "ref")

    def _link_site(
        self,
        node: FunctionNode,
        module: str,
        qualname: str,
        fdoc: Dict[str, Any],
        imports: Dict[str, str],
        site: Dict[str, Any],
    ) -> None:
        kind = site["kind"]
        line = site.get("line", fdoc["line"])
        if kind == "dynamic":
            return
        if kind == "name":
            name = site["name"]
            target = self._lexical_lookup(qualname, name)
            if target is not None:
                self._add_edge(qualname, target, line, "call")
                return
            canonical = imports.get(name)
            if canonical is not None:
                resolved = self._resolve_import_path(module, canonical)
                self._add_edge(qualname, resolved, line, "call")
            return
        if kind == "partial":
            target_site = site.get("target")
            if target_site is not None:
                inner = dict(target_site, line=line)
                before = len(self.graph.edges)
                self._link_site(node, module, qualname, fdoc, imports, inner)
                # the target resolves through the normal name/attr logic;
                # re-label whatever edges that produced as partial bindings
                for edge in self.graph.edges[before:]:
                    edge.kind = "partial"
            return
        if kind == "method":
            self._cha(qualname, site["method"], line)
            return
        if kind == "attr":
            self._link_attr_site(node, module, qualname, fdoc, site, line)
            return
        if kind == "ref":
            target = self._lexical_lookup(qualname, site.get("name", ""))
            self._add_edge(qualname, target, line, "ref")

    def _link_attr_site(
        self,
        node: FunctionNode,
        module: str,
        qualname: str,
        fdoc: Dict[str, Any],
        site: Dict[str, Any],
        line: int,
    ) -> None:
        path = site["path"]
        parts = path.split(".")
        head, method = parts[0], parts[-1]
        if head == "self" and node.cls is not None:
            if len(parts) == 2:
                target = self._method_on_class(node.cls, method)
                if target is not None:
                    self._add_edge(qualname, target, line, "call")
                    return
                # the attribute may hold a typed callable/class instance
                types = self._attr_types(node.cls, method)
                for t in types:
                    self._add_edge(
                        qualname, self._class_init(t), line, "call"
                    )
                if types:
                    return
                self._cha(qualname, method, line, site)
                return
            if len(parts) == 3:
                attr = parts[1]
                types = self._attr_types(node.cls, attr)
                if not types:
                    for hint in _RECEIVER_HINTS.get(attr, ()):
                        resolved = self.graph.resolve_class(module, hint)
                        if resolved is not None:
                            types.append(resolved)
                if types:
                    for t in types:
                        for target in self._virtual_targets(t, method):
                            self._add_edge(qualname, target, line, "method")
                    return
                self._cha(qualname, method, line, site)
                return
            self._cha(qualname, method, line, site)
            return
        # dotted module/import path (canonicalized at summary time)
        resolved = self._resolve_import_path(module, path)
        if resolved is not None:
            self._add_edge(qualname, resolved, line, "call")
            return
        # annotated-parameter or hinted receiver: ``codec.decode`` with
        # ``codec: Codec`` resolves through the hierarchy
        if len(parts) == 2:
            types = self._receiver_types(fdoc, module, head)
            if types:
                for t in types:
                    for target in self._virtual_targets(t, method):
                        self._add_edge(qualname, target, line, "method")
                return
            local = self.graph.scopes.get(module, {}).get(head)
            if local in self.graph.classes:
                target = self._method_on_class(local, method)
                if target is not None:
                    self._add_edge(qualname, target, line, "call")
                    return
        head_resolved = self.graph.imports.get(module, {}).get(head, head)
        if head_resolved.split(".")[0] in self.graph.modules or any(
            m.startswith(head_resolved.split(".")[0] + ".")
            for m in self.graph.modules
        ):
            # internal path that did not resolve (e.g. attribute chain
            # through instances): fall back to CHA on the method name
            self._cha(qualname, method, line, site)
            return
        if len(parts) == 2:
            # untyped receiver: any project method of that name
            self._cha(qualname, method, line, site)

    def _attr_types(self, cls_qualname: str, attr: str) -> List[str]:
        out: List[str] = []
        for ancestor in self._mro(cls_qualname):
            cls = self.graph.classes.get(ancestor)
            if cls is None or attr not in cls.attrs:
                continue
            for path in cls.attrs[attr].get("types", []):
                resolved = self.graph.resolve_class(cls.module, path)
                if resolved is not None and resolved not in out:
                    out.append(resolved)
        return out

    def _cha(
        self,
        qualname: str,
        method: str,
        line: int,
        site: Optional[Dict[str, Any]] = None,
    ) -> None:
        if method in AMBIENT_METHODS:
            return
        if site is not None and site.get("strcodec"):
            return
        for target in self._methods_named.get(method, []):
            self._add_edge(qualname, target, line, "cha")


def build_callgraph(project: Project) -> CallGraph:
    """Summarize and link one project."""
    graph = _Linker([summarize_file(sf) for sf in project.files]).build()
    defined = 0
    for sf in project.files:
        if sf.tree is not None and sf.relpath.startswith("src/repro/"):
            defined += sum(
                isinstance(
                    n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                for n in ast.walk(sf.tree)
            )
    graph.defined_src_functions = defined
    return graph


__all__ = [
    "AMBIENT_METHODS",
    "CallGraph",
    "ClassNode",
    "Edge",
    "FunctionNode",
    "GRAPH_SCHEMA_VERSION",
    "build_callgraph",
]
