"""A from-scratch numpy neural-network substrate.

The paper trains its models in TensorFlow; CMFL itself only ever sees
flattened update vectors, so any correct SGD learner reproduces the
algorithm's behaviour.  This package provides exactly that: a small,
fully backpropagated layer library (dense, convolution, pooling, LSTM,
embedding), losses, SGD and the flat-vector parameter
(de)serialisation the federated engine is built on.

Every layer follows the same contract:

- ``forward(x, training=True)`` caches whatever the backward pass
  needs; an inference forward (``training=False``) caches nothing;
- ``backward(grad_output)`` consumes that cache, accumulates parameter
  gradients into ``Parameter.grad`` and returns the gradient w.r.t. the
  layer input.

Each layer and loss has one body.  Those with a stacked twin of their
own (Dense, Embedding, Flatten, Conv2D, LSTM and both losses) run it
with one row: the twin's ``(clients, batch, ...)`` kernels, bound to
views of the layer's own parameters (:class:`~repro.nn.module.TwinView`,
:class:`~repro.nn.losses.Loss`).  ReLU and MaxPool2D, per element or
per plane, are their own twin's body.

All gradients are verified against finite differences in the test suite
(``tests/gradcheck.py``).
"""

from repro.nn.parameter import Parameter
from repro.nn.module import (
    BatchedModule,
    BatchedParamBinder,
    BatchedSequential,
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
from repro.nn.optimizers import SGD
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
    "SGD",
    "ConstantLR",
    "InverseSqrtLR",
    "flatten_parameters",
    "assign_flat_parameters",
    "parameter_count",
    "update_nbytes",
    "accuracy",
    "binary_accuracy",
]
