"""Plain stochastic gradient descent."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass
class SGDConfig:
    learning_rate: float = 0.1
    batch_size: int = 32
    max_epochs: int = 500
    seed: int = 0
    target_loss: float = 0.01

    def __post_init__(self):
        # written so that NaN fails every check
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError("learning_rate must be finite and positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be at least 1")
        if not (math.isfinite(self.target_loss) and self.target_loss >= 0):
            raise ConfigurationError(
                "target_loss must be finite and non-negative")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


def sgd_update(net, grads: dict, config: SGDConfig) -> None:
    """In-place step p <- p - lr * grad for every parameter of ``net``."""
    lr = config.learning_rate
    for name, p in net.parameters().items():
        p -= lr * grads[name]
