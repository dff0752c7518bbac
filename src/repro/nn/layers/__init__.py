"""Concrete layer implementations."""

from repro.nn.layers.dense import Dense
from repro.nn.layers.conv import Conv2D, MaxPool2D
from repro.nn.layers.recurrent import LSTM
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.reshape import Flatten

__all__ = ["Dense", "Conv2D", "MaxPool2D", "LSTM", "Embedding", "Flatten"]
