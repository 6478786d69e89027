"""Classification head and the interface shared by content networks.

A network maps a minibatch of problem contents to class logits. Every
content architecture ends in the same head, written once here: a sigmoid
pre-output layer ``rep``, whose rows are the learned representation, then
an identity-logit layer ``out``, trained against the softmax cross-entropy
below. An architecture supplies only the body in front of the head and,
when its contents are not same-shape arrays, ``collate``, which turns a
list of contents into the one batched input the body takes.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from ..errors import DimensionError, NumericError


def softmax_cross_entropy(logits: np.ndarray, labels):
    """Return (loss, probs, dlogits) for (B, K) logits and B int labels:
    (B,) losses and two (B, K) arrays.

    Computed through log-sum-exp so saturated logits stay finite; probs sum
    to 1 up to roundoff and the loss is non-negative.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape[:1] \
            or not np.issubdtype(labels.dtype, np.integer):
        raise DimensionError(f"need (B, K) logits and B int labels, got "
                             f"{logits.shape} and {labels.shape}")
    k = logits.shape[1]
    if np.any((labels < 0) | (labels >= k)):
        raise DimensionError(f"label {labels} outside {k}-class output")
    z = logits - np.max(logits, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    loss = lse[:, 0] - z[rows, labels]
    probs = np.exp(z - lse)
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    return loss, probs, dlogits


def check_finite(arr: np.ndarray, layer: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values after layer '{layer}'")
    return arr


class Network:
    """Base class for the content architectures: a body, then the head.

    A subclass sets ``variant`` (the checkpoint's architecture name),
    ``spec`` (a dataclass whose fields are the rest of the checkpoint
    meta) and the two head layers ``rep`` and ``out``, and provides:
      body_forward(batch) -> ((B, F) features, cache)
      body_backward(dfeatures, cache) -> {param name: gradient}
      body_parameters() -> {param name: live array}

    ``batch`` is what ``collate`` makes of a list of B contents; the
    default stacks array contents of one shape along a new leading axis.
    Every entry point takes only such a minibatch; the body raises
    DimensionError on anything else. ``backward_from_logits`` takes (B, K)
    logit gradients and returns parameter gradients summed over the
    minibatch. Parameters and gradients are named ``layer.key``, body
    first, then ``rep.weights``, ``rep.biases``, ``out.weights``,
    ``out.biases``: the checkpoint's record order.
    """

    def collate(self, contents):
        """Stack same-shape array contents into one (B, ...) array."""
        arrays = [np.asarray(c, dtype=np.float64) for c in contents]
        if len({a.shape for a in arrays}) != 1:
            raise DimensionError("minibatch contents differ in shape")
        return np.stack(arrays)

    def _to_rep(self, batch):
        """(B, rep_size) pre-output rows and the caches up to them."""
        features, body_cache = self.body_forward(batch)
        rep_y, rep_cache = self.rep.forward(features)
        return check_finite(rep_y, "rep"), (body_cache, rep_cache)

    def forward_logits(self, batch):
        """(B, K) logits for a collated minibatch, and the backward cache."""
        rep_y, cache = self._to_rep(batch)
        logits, out_cache = self.out.forward(rep_y)
        check_finite(logits, "out")
        return logits, cache + (out_cache,)

    def backward_from_logits(self, dlogits, cache):
        body_cache, rep_cache, out_cache = cache
        d_rep, out_grads = self.out.backward(dlogits, out_cache)
        d_features, rep_grads = self.rep.backward(d_rep, rep_cache)
        return {**self.body_backward(d_features, body_cache),
                "rep.weights": rep_grads["weights"],
                "rep.biases": rep_grads["biases"],
                "out.weights": out_grads["weights"],
                "out.biases": out_grads["biases"]}

    def parameters(self) -> dict[str, np.ndarray]:
        return {**self.body_parameters(),
                "rep.weights": self.rep.weights, "rep.biases": self.rep.biases,
                "out.weights": self.out.weights, "out.biases": self.out.biases}

    def representation(self, batch) -> np.ndarray:
        """(B, rep_size) pre-output rows of a collated minibatch, from the
        same forward pass as the logits."""
        return self._to_rep(batch)[0]

    def meta(self) -> dict:
        """Checkpoint meta: the architecture name plus the spec's fields."""
        return {"architecture": self.variant, **asdict(self.spec)}

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.parameters().values()))

    def loss_and_probs(self, content, label: int):
        """Cross-entropy loss and (K,) class probabilities of one sample,
        run as a minibatch of one."""
        logits, _ = self.forward_logits(self.collate([content]))
        loss, probs, _ = softmax_cross_entropy(logits, np.array([label]))
        return loss[0], probs[0]

    def batch_loss_and_grads(self, batch):
        """Mean loss over (content, label) pairs and its parameter gradients,
        from one forward and one backward pass over the collated minibatch."""
        if not batch:
            raise DimensionError("empty batch")
        logits, cache = self.forward_logits(self.collate([c for c, _ in batch]))
        losses, _, dlogits = softmax_cross_entropy(
            logits, np.array([label for _, label in batch]))
        n = len(batch)
        return float(np.sum(losses)) / n, \
            self.backward_from_logits(dlogits / n, cache)
