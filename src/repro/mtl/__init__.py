"""MOCHA-style federated multi-task learning (paper Sec. V-B).

MOCHA (Smith et al., NIPS'17) trains one model per client.  CMFL
generalises to it because the global state is still an aggregation of
local updates: each client judges its local drift against the
federation's previous update tendency before uploading.  This package
realises the per-client models as a shared, aggregated base plus a
private offset per client, with the same upload-policy interface as
:mod:`repro.fl`.
"""

from repro.mtl.mocha import MTLConfig, MochaTrainer

__all__ = ["MTLConfig", "MochaTrainer"]
