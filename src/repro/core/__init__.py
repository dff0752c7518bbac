"""CMFL: the paper's contribution.

- :mod:`repro.core.relevance` -- the sign-alignment relevance measure
  e(u, u_bar) of Eq. (9);
- :mod:`repro.core.thresholds` -- threshold schedules (the paper uses
  v_t = v0 / sqrt(t));
- :mod:`repro.core.feedback` -- the previous-global-update estimator and
  the delta-update diagnostic of Eq. (8);
- :mod:`repro.core.policy` -- the client-side upload filter that puts
  them together.
"""

from repro.core.relevance import relevance, sign_agreement_counts
from repro.core.thresholds import (
    ConstantThreshold,
    InverseSqrtThreshold,
    LinearDecayThreshold,
    ThresholdSchedule,
)
from repro.core.feedback import GlobalUpdateEstimator, normalized_update_difference
from repro.core.policy import CMFLPolicy, PolicyContext, UploadDecision, UploadPolicy

__all__ = [
    "relevance",
    "sign_agreement_counts",
    "ThresholdSchedule",
    "ConstantThreshold",
    "InverseSqrtThreshold",
    "LinearDecayThreshold",
    "GlobalUpdateEstimator",
    "normalized_update_difference",
    "UploadPolicy",
    "UploadDecision",
    "PolicyContext",
    "CMFLPolicy",
]
