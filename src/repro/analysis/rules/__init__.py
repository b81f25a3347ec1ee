"""Rule registry: one class per mechanically-enforced contract."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from ...errors import AnalysisError
from .base import GraphRule, Rule
from .checkpoint_purity import CheckpointPurityRule
from .decode_taint import DecodeTaintRule
from .determinism import DeterminismRule
from .exception_flow import ExceptionFlowRule
from .exception_taxonomy import ExceptionTaxonomyRule
from .scalar_parity import ScalarParityRule
from .supervision import SupervisionRule

#: every registered rule, in id order
ALL_RULES: List[Type[Rule]] = [
    ScalarParityRule,
    DeterminismRule,
    ExceptionTaxonomyRule,
    SupervisionRule,
    DecodeTaintRule,
    ExceptionFlowRule,
    CheckpointPurityRule,
]

_BY_ID: Dict[str, Type[Rule]] = {cls.rule_id: cls for cls in ALL_RULES}


def get_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the selected rules (all of them by default)."""
    if not rule_ids:
        return [cls() for cls in ALL_RULES]
    rules = []
    for rule_id in rule_ids:
        cls = _BY_ID.get(rule_id.upper())
        if cls is None:
            raise AnalysisError(
                f"unknown rule {rule_id!r}; available: {sorted(_BY_ID)}"
            )
        rules.append(cls())
    return rules


__all__ = ["ALL_RULES", "GraphRule", "Rule", "get_rules"]
