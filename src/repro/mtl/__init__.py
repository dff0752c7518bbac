"""MOCHA-style federated multi-task learning (paper Sec. V-B).

MOCHA (Smith et al., NIPS'17) trains one model per client plus a task
relationship matrix.  CMFL generalises to it because the global state
is still an aggregation of local updates: each client judges its column
update against the federation's previous update tendency before
uploading.  This package implements the alternating scheme -- local
regularised updates of per-task weights, closed-form relationship
matrix refresh -- with the same upload-policy interface as
:mod:`repro.fl`.
"""

from repro.mtl.relationship import relationship_matrix
from repro.mtl.mocha import MTLConfig, MochaTrainer

__all__ = ["relationship_matrix", "MTLConfig", "MochaTrainer"]
