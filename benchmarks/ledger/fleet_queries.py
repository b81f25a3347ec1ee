"""Replay registry the fleet's tenants resolve their queries in.

``TenantSpec.query_module`` names a module with a ``QUERIES`` dict whose
entries duck-type :class:`repro.datasets.queries.QueryConfig`.  The
entries here answer ``make_source`` from batches the ledger generated in
set-up, so a tenant session — and a restart seeking back to its
checkpoint cursor — replays stored batches and dataset generation never
runs inside a timed pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional

from repro.datasets.queries import QueryConfig
from repro.stream.batch import Batch
from repro.stream.schema import Schema

#: the module path tenants put in ``TenantSpec.query_module`` (the ledger
#: directory is on ``sys.path`` because ``run.py`` lives in it)
MODULE = "fleet_queries"


@dataclass(frozen=True)
class ReplayQuery:
    """A Table III query whose sources are pre-generated, keyed by seed."""

    config: QueryConfig
    stored: Mapping[int, List[Batch]]

    @property
    def catalog(self) -> Dict[str, Schema]:
        return self.config.catalog

    @property
    def window(self) -> int:
        return self.config.window

    def text(self, slide: Optional[int] = None) -> str:
        return self.config.text(slide=slide)

    def make_source(self, batch_size: int, batches: int, seed: int) -> Iterator[Batch]:
        return iter(self.stored[seed][:batches])


#: what the serving layer looks tenants' queries up in; ``install`` swaps
#: the contents because ``TenantSpec`` can only name a module, not pass one
QUERIES: Dict[str, ReplayQuery] = {}


def install(queries: Mapping[str, ReplayQuery]) -> None:
    QUERIES.clear()
    QUERIES.update(queries)
