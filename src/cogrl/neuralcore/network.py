"""Classification head and the interface shared by content networks.

A network maps a minibatch of problem contents to class logits. The
softmax cross-entropy head lives here so every architecture trains against
the same loss; concrete architectures implement ``forward_logits``,
``backward_from_logits`` and ``parameters``, and may override ``collate``,
which turns a list of contents into the one batched input they take.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError, NumericError


def softmax_cross_entropy(logits: np.ndarray, label):
    """Return (loss, probs, dlogits) for (B, K) logits and B labels.

    One sample, (K,) logits and an int label, runs as a batch of one and
    returns a scalar loss and (K,) arrays. Computed through log-sum-exp so
    saturated logits stay finite; probs sum to 1 up to roundoff and the
    loss is non-negative.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(label)
    if logits.ndim not in (1, 2) or labels.shape != logits.shape[:-1] \
            or not np.issubdtype(labels.dtype, np.integer):
        raise DimensionError(
            f"need (K,) logits with an int label or (B, K) logits with B "
            f"labels, got {logits.shape} and {labels.shape}")
    k = logits.shape[-1]
    if np.any((labels < 0) | (labels >= k)):
        raise DimensionError(f"label {label} outside {k}-class output")
    z = logits.reshape(-1, k)
    z = z - np.max(z, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    cols = labels.reshape(-1)
    loss = lse[:, 0] - z[rows, cols]
    probs = np.exp(z - lse)
    dlogits = probs.copy()
    dlogits[rows, cols] -= 1.0
    return (loss.reshape(labels.shape)[()], probs.reshape(logits.shape),
            dlogits.reshape(logits.shape))


def check_finite(arr: np.ndarray, layer: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values after layer '{layer}'")
    return arr


class Network:
    """Base class for the content architectures.

    Subclasses provide:
      forward_logits(batch) -> ((B, K) logits, cache)
      backward_from_logits(dlogits, cache) -> {param name: gradient}
      parameters() -> {param name: live array}

    ``batch`` is what ``collate`` makes of a list of B contents; the
    default stacks array contents of one shape along a new leading axis.
    ``backward_from_logits`` takes (B, K) logit gradients and returns
    parameter gradients summed over the minibatch. ``forward_logits`` also
    takes one uncollated content, runs it as a batch of one and returns
    (K,) logits; ``predict`` and ``loss_and_probs`` rely on that.

    The content architectures also provide ``representation(batch)``, the
    pre-output rows, computed by the same forward pass as the logits, and
    ``meta()``, the checkpoint meta: the architecture name plus the fields
    of its spec.
    """

    def collate(self, contents):
        """Stack same-shape array contents into one (B, ...) array."""
        arrays = [np.asarray(c, dtype=np.float64) for c in contents]
        if len({a.shape for a in arrays}) != 1:
            raise DimensionError("minibatch contents differ in shape")
        return np.stack(arrays)

    def forward_logits(self, batch):
        raise NotImplementedError

    def backward_from_logits(self, dlogits, cache):
        raise NotImplementedError

    def parameters(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.parameters().values()))

    def loss_and_probs(self, content, label: int):
        """Cross-entropy loss and class probabilities for one sample."""
        logits, _ = self.forward_logits(content)
        loss, probs, _ = softmax_cross_entropy(logits, label)
        return loss, probs

    def predict(self, content) -> int:
        logits, _ = self.forward_logits(content)
        return int(np.argmax(logits))

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
