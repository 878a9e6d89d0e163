"""A from-scratch numpy autograd neural-network framework.

Replaces PyTorch for the paper's models: LocMatcher's transformer encoder
and additive attention, the LSTM pointer variant (DLInfMA-PN), the MLP and
RankNet variants, and the UNet-based baseline.
"""

from repro.nn.tensor import DEFAULT_DTYPE, NEG_INF, Tensor, cat, stack
from repro.nn.module import Module
from repro.nn.layers import (
    Linear,
    Embedding,
    LayerNorm,
    Dropout,
    ReLU,
    Tanh,
    Sigmoid,
    Sequential,
)
from repro.nn.attention import (
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
    TransformerEncoder,
)
from repro.nn.recurrent import GRU, LSTM
from repro.nn.conv import Conv2d, MaxPool2d, conv2d, max_pool2d, pad2d, upsample_nearest
from repro.nn.optim import Optimizer, SGD, Adam, StepLR
from repro.nn.clip import clip_grad_norm, clip_grad_value
from repro.nn import functional
from repro.nn import init

__all__ = [
    "Tensor",
    "cat",
    "stack",
    "DEFAULT_DTYPE",
    "NEG_INF",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Sequential",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "GRU",
    "LSTM",
    "clip_grad_norm",
    "clip_grad_value",
    "Conv2d",
    "MaxPool2d",
    "conv2d",
    "max_pool2d",
    "pad2d",
    "upsample_nearest",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "functional",
    "init",
]
