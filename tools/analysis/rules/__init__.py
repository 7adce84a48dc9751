"""Rule registry: one place that knows every pass, in report order.

``all_rules()`` instantiates the full set; the CLI's ``--select`` /
``--ignore`` filter it by rule id.  Register new passes here so
``--list-rules``, the gate, and the docs all see them.
"""

from __future__ import annotations

from typing import List

from ..core import Rule, SyntaxErrorRule, UnusedSuppressionRule
from .contracts import (BareExceptRule, CampaignTimeoutRule,
                        ExitCodeTableRule, SwallowedExceptionRule)
from .determinism import (ForeignPoolRule, SetIterationRule, UnseededRngRule,
                          UnsortedWalkRule, WallClockRule)
from .docs import CliReferenceRule, DocLinkRule
from .hygiene import AnnotationCoverageRule, DocstringCoverageRule
from .numeric import (AggregateDivisionRule, DtypeDowncastRule,
                      FloatEqualityRule)
from .observability import CampaignManifestRule, MetricReferenceRule
from .wholeprogram import (ExitContractRule, IpcHygieneRule,
                           SeedProvenanceRule)


def all_rules() -> List[Rule]:
    """Every registered pass, ordered by rule id."""
    rules = [
        SyntaxErrorRule(),
        UnseededRngRule(),
        WallClockRule(),
        UnsortedWalkRule(),
        SetIterationRule(),
        ForeignPoolRule(),
        SeedProvenanceRule(),
        FloatEqualityRule(),
        AggregateDivisionRule(),
        DtypeDowncastRule(),
        BareExceptRule(),
        SwallowedExceptionRule(),
        ExitCodeTableRule(),
        CampaignTimeoutRule(),
        ExitContractRule(),
        DocstringCoverageRule(),
        UnusedSuppressionRule(),
        DocLinkRule(),
        CliReferenceRule(),
        AnnotationCoverageRule(),
        CampaignManifestRule(),
        MetricReferenceRule(),
        IpcHygieneRule(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)
