"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError


def grad_check(net, sample, epsilon: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    Every parameter element is perturbed by +/- epsilon and the central
    difference (L(p+eps) - L(p-eps)) / (2 eps) is compared against the
    analytic gradient of the single-sample loss. The relative error is
    |a - n| / max(|a| + |n|, 1e-4); the floor keeps the ratio meaningful
    where both gradients are numerically tiny.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigurationError("epsilon must be finite and positive")
    content, label = sample
    _, grads = net.batch_loss_and_grads([sample])
    worst = 0.0
    for name, p in net.parameters().items():
        g = grads[name]
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + epsilon
            loss_plus = net.sample_loss(content, label)
            p[idx] = orig - epsilon
            loss_minus = net.sample_loss(content, label)
            p[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = g[idx]
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-4)
            if rel > worst:
                worst = rel
    return worst
