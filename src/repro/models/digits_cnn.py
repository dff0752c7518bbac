"""The paper's MNIST CNN (Sec. V-A workload 1).

Two 5x5 convolution layers (each followed by ReLU and 2x2 max pooling),
a fully connected layer and an output layer, per LeCun et al.'s classic
architecture.  Channel, hidden and image sizes are parameters; every
experiment preset, ``paper`` included, builds the small 20x20 one
(DESIGN.md §2 says why width is a substitution).
"""

from __future__ import annotations

from typing import Tuple

from repro.nn.activations import ReLU
from repro.nn.layers.conv import Conv2D, MaxPool2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.reshape import Flatten
from repro.nn.module import Sequential
from repro.utils.rng import RngLike, child_rngs

__all__ = ["make_digits_cnn"]


def make_digits_cnn(
    image_size: int = 28,
    n_classes: int = 10,
    channels: Tuple[int, int] = (8, 16),
    hidden: int = 64,
    rng: RngLike = None,
) -> Sequential:
    """Build the two-conv-layer digit CNN.

    The spatial pipeline for a 28x28 input: 5x5 valid conv -> 24,
    2x2 pool -> 12, 5x5 valid conv -> 8, 2x2 pool -> 4, then flatten.
    """
    c1, c2 = channels
    rngs = child_rngs(rng, 4)
    after_conv1 = image_size - 4
    if after_conv1 % 2:
        raise ValueError(f"image_size {image_size} breaks the 2x2 pooling grid")
    after_pool1 = after_conv1 // 2
    after_conv2 = after_pool1 - 4
    if after_conv2 < 2 or after_conv2 % 2:
        raise ValueError(f"image_size {image_size} too small for two conv+pool stages")
    after_pool2 = after_conv2 // 2
    flat_features = c2 * after_pool2 * after_pool2
    return Sequential(
        [
            Conv2D(1, c1, kernel_size=5, rng=rngs[0], name="conv1"),
            ReLU(),
            MaxPool2D(2),
            Conv2D(c1, c2, kernel_size=5, rng=rngs[1], name="conv2"),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(flat_features, hidden, rng=rngs[2], name="fc1"),
            ReLU(),
            Dense(hidden, n_classes, rng=rngs[3], name="out"),
        ]
    )
