"""Minimal neural substrate: layers, losses, SGD and gradient checking."""

from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import grad_check
from .layers import (
    ACTIVATIONS,
    ConvLayer,
    DenseLayer,
    EmbeddingTable,
    LSTMCell,
    sigmoid,
)
from .network import Network, check_finite, softmax_cross_entropy
from .train import SGDConfig, sgd_update

__all__ = [
    "ACTIVATIONS",
    "ConvLayer",
    "DenseLayer",
    "EmbeddingTable",
    "LSTMCell",
    "Network",
    "SGDConfig",
    "check_finite",
    "grad_check",
    "load_checkpoint",
    "save_checkpoint",
    "sigmoid",
    "softmax_cross_entropy",
    "sgd_update",
]
