"""A from-scratch numpy neural-network substrate.

The paper trains its models in TensorFlow; CMFL itself only ever sees
flattened update vectors, so any correct SGD learner reproduces the
algorithm's behaviour.  This package provides exactly that: a small,
fully backpropagated layer library (dense, convolution, pooling, LSTM,
embedding), losses, optimizers and the flat-vector parameter
(de)serialisation the federated engine is built on.

Every layer follows the same contract:

- ``forward(x, training=True)`` caches whatever the backward pass
  needs; an inference forward (``training=False``) caches nothing;
- ``backward(grad_output)`` consumes that cache, accumulates parameter
  gradients into ``Parameter.grad`` and returns the gradient w.r.t. the
  layer input.

All gradients are verified against finite differences in the test suite
(see :mod:`repro.nn.gradcheck`).
"""

from repro.nn.parameter import Parameter
from repro.nn.module import (
    BatchedModule,
    BatchedParamBinder,
    BatchedSequential,
    BatchedUnsupported,
    Module,
    Sequential,
)
from repro.nn.activations import ReLU
from repro.nn.layers.dense import Dense
from repro.nn.layers.conv import Conv2D, MaxPool2D
from repro.nn.layers.recurrent import LSTM
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.reshape import Flatten
from repro.nn.losses import (
    BatchedLoss,
    Loss,
    SigmoidBinaryCrossEntropy,
    SoftmaxCrossEntropy,
)
from repro.nn.optimizers import SGD, Momentum, Optimizer
from repro.nn.schedules import ConstantLR, InverseSqrtLR
from repro.nn.serialization import (
    assign_flat_parameters,
    flatten_parameters,
    parameter_count,
    update_nbytes,
)
from repro.nn.metrics import accuracy, binary_accuracy

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "BatchedModule",
    "BatchedParamBinder",
    "BatchedSequential",
    "BatchedUnsupported",
    "BatchedLoss",
    "ReLU",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "LSTM",
    "Embedding",
    "Flatten",
    "Loss",
    "SoftmaxCrossEntropy",
    "SigmoidBinaryCrossEntropy",
    "Optimizer",
    "SGD",
    "Momentum",
    "ConstantLR",
    "InverseSqrtLR",
    "flatten_parameters",
    "assign_flat_parameters",
    "parameter_count",
    "update_nbytes",
    "accuracy",
    "binary_accuracy",
]
