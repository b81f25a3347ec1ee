"""CSD012: static checkpoint purity of the pickled session graph.

``TenantSession.state_bytes`` pickles the session's mutable object
graph; anything pickle-hostile that *reaches* that graph — a lambda
stored on an attribute three hops away, an open file handle, a live
thread — fails at checkpoint time, and anything wall-clock-bearing
breaks replay determinism silently.  The chaos campaign only exercises
the states its seeds happen to produce, so this rule proves the
property statically instead: it walks the class-attribute type graph
from :class:`TenantSession` (annotated types, constructor assignments,
annotated-parameter assignments) and flags every reachable attribute
carrying a pickle-hostile marker or an unpicklable type root.

The walk follows composition: ``TenantSession -> Pipeline -> {client,
server, channel, transport}``.  What the checkpoint code leaves out is
excluded below and nowhere else: the three attributes
``TenantSession.restore`` takes as arguments
(``repro.serve.session.REBUILT_ON_RESTORE``, the delivered outputs among
them, which the checkpoint store logs), the source iterator and
lookahead feed ``Pipeline.__getstate__`` drops, and the shared decode
cache ``state_bytes`` detaches.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from ..callgraph import CallGraph
from ..dataflow import attribute_closure
from ..findings import Finding
from ..project import Project
from .base import GraphRule

#: root of the pickled object graph
ROOT_CLASS = "TenantSession"

#: (class leaf name, attribute) pairs excluded from the pickled state
DETACHED_ATTRS: Set[Tuple[str, str]] = {
    # restore() arguments (session.REBUILT_ON_RESTORE)
    ("TenantSession", "spec"),
    ("TenantSession", "disarmed"),
    # delivered results: each checkpoint hands its new ones to the
    # store's append-once output log, restore() takes them back
    ("TenantSession", "outputs"),
    # dropped by Pipeline.__getstate__; attach() re-seeks a fresh one
    ("Pipeline", "_source"),
    # dropped by Pipeline.__getstate__; attach() re-pulls the same
    # batches from the seeded source after seeking to the cursor
    ("Pipeline", "feed"),
    # one decode/morph point shared across tenants; state_bytes()
    # detaches it before pickling, restore() re-attaches it
    ("Server", "cache"),
}

#: dotted-path prefixes whose instances never pickle
UNPICKLABLE_TYPE_ROOTS: Tuple[str, ...] = (
    "threading.",
    "socket.",
    "subprocess.",
    "multiprocessing.",
)


class CheckpointPurityRule(GraphRule):
    rule_id = "CSD012"
    title = "checkpoint-purity"
    waiver_tag = "checkpoint-purity"
    rationale = (
        "Checkpoint/restore is the serving layer's crash-recovery "
        "contract; a pickle-hostile or wall-clock-bearing attribute "
        "anywhere in TenantSession's reachable object graph corrupts it "
        "only on the states that happen to hit it at runtime.  Static "
        "reachability over the class-attribute graph proves the whole "
        "graph pickles cleanly and deterministically."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph
        if not isinstance(graph, CallGraph):
            return
        for found in attribute_closure(
            graph, ROOT_CLASS, DETACHED_ATTRS, UNPICKLABLE_TYPE_ROOTS
        ):
            owner = graph.classes.get(found.owner)
            relpath = owner.relpath if owner is not None else ""
            yield self.flag_at(
                project,
                relpath,
                found.line,
                f"attribute {found.attr_path!r} in {ROOT_CLASS}'s pickled "
                f"object graph is {found.problem}; checkpoints must "
                "pickle cleanly and replay deterministically — detach it "
                "in state_bytes()/restore() or waive with "
                "'# lint: checkpoint-purity <why safe>'",
            )
