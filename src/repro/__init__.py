"""repro: a full reproduction of CMFL (Wang, Wang & Li, ICDCS 2019).

The package is organised in layers:

- :mod:`repro.nn` -- a from-scratch numpy neural-network substrate
  (layers, losses, optimizers, full backprop).
- :mod:`repro.data` -- synthetic stand-ins for the paper's datasets
  (MNIST-like digits, Shakespeare-like dialogue, HAR-like activity data,
  Semeion-like digits) plus non-IID partitioners.
- :mod:`repro.fl` -- the synchronous federated-learning engine with
  communication accounting.
- :mod:`repro.core` -- the paper's contribution: the CMFL relevance
  measure, threshold schedules and upload policy.
- :mod:`repro.baselines` -- vanilla FL and Gaia significance filtering.
- :mod:`repro.mtl` -- MOCHA-style federated multi-task learning.
- :mod:`repro.analysis` -- the paper's measurement machinery
  (Normalized Model Divergence, delta-update, saving, CDFs).
- :mod:`repro.experiments` -- one runnable module per paper figure/table.
"""

from repro.core.relevance import relevance
from repro.core.policy import CMFLPolicy
from repro.baselines.gaia import GaiaPolicy
from repro.baselines.vanilla import VanillaPolicy
from repro.fl.trainer import FederatedTrainer
from repro.fl.config import FLConfig

__version__ = "1.0.0"

__all__ = [
    "relevance",
    "CMFLPolicy",
    "GaiaPolicy",
    "VanillaPolicy",
    "FederatedTrainer",
    "FLConfig",
    "__version__",
]
