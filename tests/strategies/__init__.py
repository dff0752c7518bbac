"""Hypothesis strategies, settings and the lattice check.

    from tests.strategies import DETERMINISM_SETTINGS, federation_specs
"""

from tests.strategies.federations import (
    MODEL_FAMILIES,
    FederationSpec,
    federation,
    federation_specs,
    linear_workspace,
    model_family,
)
from tests.strategies.lattice import (
    FIXED,
    SMOKE,
    STORE,
    SYNC_EQUIV,
    assert_lattice,
)
from tests.strategies.settings import DETERMINISM_SETTINGS, STANDARD_SETTINGS

__all__ = [
    "DETERMINISM_SETTINGS",
    "FIXED",
    "MODEL_FAMILIES",
    "SMOKE",
    "STANDARD_SETTINGS",
    "STORE",
    "SYNC_EQUIV",
    "FederationSpec",
    "assert_lattice",
    "federation",
    "federation_specs",
    "linear_workspace",
    "model_family",
]
