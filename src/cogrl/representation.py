"""Content architectures, training, and Q-matrix extraction.

Both architectures end in the same two layers: a sigmoid pre-output layer
(default 50 units) whose activations are the problem's learned
representation, then an identity-logit output layer over the answer
classes. After training on (problem content, correct answer) pairs, the
pre-output rows are collected per item and thresholded into a binary
Q-matrix: representation dimension k becomes knowledge component ``rep_k``
wherever its activation exceeds the threshold (0.95 by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cogmodel import QMatrix, SanitationReport, sanitize_qmatrix
from .errors import ConfigurationError, DimensionError, InputError, NumericError
from .neuralcore.checkpoint import load_checkpoint, save_checkpoint
from .neuralcore.layers import ConvLayer, DenseLayer, EmbeddingTable, LSTMCell
from .neuralcore.network import Network, check_finite
from .neuralcore.train import SGDConfig, sgd_update
from .problems import ClozeContent, ProblemInstance

REP_SIZE_DEFAULT = 50
THRESHOLD_DEFAULT = 0.95


@dataclass
class ImageArchSpec:
    """Convolutional architecture over fixed-size channel-first images."""

    in_shape: tuple[int, int, int]
    n_classes: int
    filters: int = 10
    kernel: int = 10
    stride: int = 5
    rep_size: int = REP_SIZE_DEFAULT

    def __post_init__(self):
        c, h, w = self.in_shape
        if min(c, h, w) < 1 or self.n_classes < 2:
            raise ConfigurationError("bad image shape or class count")
        if min(self.filters, self.kernel, self.stride, self.rep_size) < 1:
            raise ConfigurationError("architecture sizes must be positive")


@dataclass
class ClozeArchSpec:
    """Bidirectional character LSTM over text split at the blank."""

    n_classes: int
    embedding_dim: int = 32
    lstm_hidden: int = 128
    combine_size: int = 256
    rep_size: int = REP_SIZE_DEFAULT

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigurationError("need at least 2 answer classes")
        if min(self.embedding_dim, self.lstm_hidden, self.combine_size,
               self.rep_size) < 1:
            raise ConfigurationError("architecture sizes must be positive")
        if self.combine_size != 2 * self.lstm_hidden:
            raise ConfigurationError(
                "combine_size must equal twice the per-direction hidden size")


class CharVocab:
    """Characters of the lowercased training questions; id 0 is unknown."""

    def __init__(self, chars):
        self.chars = sorted(set(chars))
        if not self.chars:
            raise ConfigurationError("empty vocabulary")
        self._ids = {ch: i + 1 for i, ch in enumerate(self.chars)}

    @property
    def size(self) -> int:
        return len(self.chars) + 1

    @classmethod
    def from_problems(cls, problems) -> "CharVocab":
        chars = set()
        for p in problems:
            if not isinstance(p.content, ClozeContent):
                raise ConfigurationError(
                    f"problem {p.item_id} is not a cloze question")
            chars.update((p.content.prefix + p.content.suffix).lower())
        return cls(chars)

    def encode(self, text: str) -> np.ndarray:
        return np.array([self._ids.get(ch, 0) for ch in text.lower()],
                        dtype=np.intp)


class ImageCNN(Network):
    """conv -> flatten -> sigmoid pre-output -> class logits."""

    variant = "image_cnn"
    batch_first = True

    def __init__(self, spec: ImageArchSpec, seed: int = 0):
        rng = np.random.default_rng(seed)
        c, h, w = spec.in_shape
        if spec.kernel > h or spec.kernel > w:
            raise DimensionError(
                f"kernel {spec.kernel} larger than {h}x{w} image")
        self.spec = spec
        self.conv = ConvLayer(c, spec.filters, spec.kernel, spec.stride, rng)
        _, oh, ow = self.conv.output_shape(h, w)
        self.conv_out_shape = (spec.filters, oh, ow)
        self.flat_size = spec.filters * oh * ow
        self.rep = DenseLayer(self.flat_size, spec.rep_size, "sigmoid", rng)
        self.out = DenseLayer(spec.rep_size, spec.n_classes, "identity", rng)

    def forward_logits(self, image):
        """Logits for one (C, H, W) image, or (B, K) logits for a
        (B, C, H, W) stack of images."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim not in (3, 4) or image.shape[-3:] != self.spec.in_shape:
            raise DimensionError(
                f"expected image shape {self.spec.in_shape}, got {image.shape}")
        conv_y, conv_cache = self.conv.forward(image)
        check_finite(conv_y, "conv")
        flat = conv_y.reshape(image.shape[:-3] + (self.flat_size,))
        rep_y, rep_cache = self.rep.forward(flat)
        check_finite(rep_y, "rep")
        logits, out_cache = self.out.forward(rep_y)
        check_finite(logits, "out")
        return logits, (conv_cache, rep_cache, out_cache)

    def backward_from_logits(self, dlogits, cache):
        conv_cache, rep_cache, out_cache = cache
        d_rep, out_grads = self.out.backward(dlogits, out_cache)
        d_flat, rep_grads = self.rep.backward(d_rep, rep_cache)
        _, conv_grads = self.conv.backward(
            d_flat.reshape(d_flat.shape[:-1] + self.conv_out_shape), conv_cache)
        return {
            "conv.kernels": conv_grads["kernels"],
            "conv.gains": conv_grads["gains"],
            "rep.weights": rep_grads["weights"],
            "rep.biases": rep_grads["biases"],
            "out.weights": out_grads["weights"],
            "out.biases": out_grads["biases"],
        }

    def parameters(self):
        return {
            "conv.kernels": self.conv.kernels,
            "conv.gains": self.conv.gains,
            "rep.weights": self.rep.weights,
            "rep.biases": self.rep.biases,
            "out.weights": self.out.weights,
            "out.biases": self.out.biases,
        }

    def representation(self, image) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        conv_y, _ = self.conv.forward(image)
        rep_y, _ = self.rep.forward(conv_y.reshape(-1))
        return rep_y

    def meta(self) -> dict:
        return {
            "architecture": self.variant,
            "in_shape": list(self.spec.in_shape),
            "n_classes": self.spec.n_classes,
            "filters": self.spec.filters,
            "kernel": self.spec.kernel,
            "stride": self.spec.stride,
            "rep_size": self.spec.rep_size,
        }


class ClozeLSTM(Network):
    """Bidirectional character LSTM around the blank.

    The pre-blank characters feed a forward LSTM in reading order and the
    post-blank characters feed a backward LSTM in reverse order; an empty
    side contributes that direction's zero initial state. The two final
    hidden states are concatenated, passed through a tanh combine layer,
    then the sigmoid pre-output and the class logits.
    """

    variant = "cloze_lstm"

    def __init__(self, spec: ClozeArchSpec, vocab: CharVocab, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.vocab = vocab
        self.embed = EmbeddingTable(vocab.size, spec.embedding_dim, rng)
        self.fwd = LSTMCell(spec.embedding_dim, spec.lstm_hidden, rng)
        self.bwd = LSTMCell(spec.embedding_dim, spec.lstm_hidden, rng)
        self.combine = DenseLayer(2 * spec.lstm_hidden, spec.combine_size,
                                  "tanh", rng)
        self.rep = DenseLayer(spec.combine_size, spec.rep_size, "sigmoid", rng)
        self.out = DenseLayer(spec.rep_size, spec.n_classes, "identity", rng)

    def _encode(self, content: ClozeContent):
        if not isinstance(content, ClozeContent):
            raise DimensionError("cloze network expects ClozeContent input")
        pre_ids = self.vocab.encode(content.prefix)
        post_ids = self.vocab.encode(content.suffix)[::-1]
        return pre_ids, post_ids

    def forward_logits(self, content):
        pre_ids, post_ids = self._encode(content)
        pre_vecs = self.embed.forward(pre_ids)
        post_vecs = self.embed.forward(post_ids)
        h_f, _, f_caches = self.fwd.run(pre_vecs)
        h_b, _, b_caches = self.bwd.run(post_vecs)
        both = np.concatenate([h_f, h_b])
        check_finite(both, "lstm")
        comb_y, comb_cache = self.combine.forward(both)
        check_finite(comb_y, "combine")
        rep_y, rep_cache = self.rep.forward(comb_y)
        check_finite(rep_y, "rep")
        logits, out_cache = self.out.forward(rep_y)
        check_finite(logits, "out")
        cache = (pre_ids, post_ids, f_caches, b_caches,
                 comb_cache, rep_cache, out_cache)
        return logits, cache

    def backward_from_logits(self, dlogits, cache):
        (pre_ids, post_ids, f_caches, b_caches,
         comb_cache, rep_cache, out_cache) = cache
        d_rep, out_grads = self.out.backward(dlogits, out_cache)
        d_comb, rep_grads = self.rep.backward(d_rep, rep_cache)
        d_both, comb_grads = self.combine.backward(d_comb, comb_cache)
        h = self.spec.lstm_hidden
        d_pre, fwd_grads = self.fwd.backward_through_time(f_caches, d_both[:h])
        d_post, bwd_grads = self.bwd.backward_through_time(b_caches, d_both[h:])
        d_embed = self.embed.backward(pre_ids, d_pre)
        d_embed += self.embed.backward(post_ids, d_post)
        grads = {"embed.vectors": d_embed}
        for prefix, cell_grads in (("fwd", fwd_grads), ("bwd", bwd_grads)):
            for key, g in cell_grads.items():
                grads[f"{prefix}.{key}"] = g
        grads.update({
            "combine.weights": comb_grads["weights"],
            "combine.biases": comb_grads["biases"],
            "rep.weights": rep_grads["weights"],
            "rep.biases": rep_grads["biases"],
            "out.weights": out_grads["weights"],
            "out.biases": out_grads["biases"],
        })
        return grads

    def parameters(self):
        params = {"embed.vectors": self.embed.vectors}
        for prefix, cell in (("fwd", self.fwd), ("bwd", self.bwd)):
            params[f"{prefix}.w_x"] = cell.w_x
            params[f"{prefix}.w_h"] = cell.w_h
            params[f"{prefix}.b_x"] = cell.b_x
            params[f"{prefix}.b_h"] = cell.b_h
        params.update({
            "combine.weights": self.combine.weights,
            "combine.biases": self.combine.biases,
            "rep.weights": self.rep.weights,
            "rep.biases": self.rep.biases,
            "out.weights": self.out.weights,
            "out.biases": self.out.biases,
        })
        return params

    def representation(self, content) -> np.ndarray:
        pre_ids, post_ids = self._encode(content)
        h_f, _, _ = self.fwd.run(self.embed.forward(pre_ids))
        h_b, _, _ = self.bwd.run(self.embed.forward(post_ids))
        comb_y, _ = self.combine.forward(np.concatenate([h_f, h_b]))
        rep_y, _ = self.rep.forward(comb_y)
        return rep_y

    def meta(self) -> dict:
        return {
            "architecture": self.variant,
            "n_classes": self.spec.n_classes,
            "embedding_dim": self.spec.embedding_dim,
            "lstm_hidden": self.spec.lstm_hidden,
            "combine_size": self.spec.combine_size,
            "rep_size": self.spec.rep_size,
            "vocab_chars": "".join(self.vocab.chars),
        }


def build_image_cnn(spec: ImageArchSpec, seed: int = 0) -> ImageCNN:
    return ImageCNN(spec, seed)


def build_cloze_lstm(spec: ClozeArchSpec, vocab: CharVocab,
                     seed: int = 0) -> ClozeLSTM:
    return ClozeLSTM(spec, vocab, seed)


# ---------------------------------------------------------------------------
# training


def train_model(net: Network, problems: list[ProblemInstance],
                config: SGDConfig) -> list[float]:
    """Minibatch SGD with seeded per-epoch shuffling; returns the per-epoch
    mean-loss history. Stops early once the mean epoch loss falls below
    config.target_loss."""
    if len(problems) < 2:
        raise InputError("training needs at least 2 problems")
    if len({p.answer for p in problems}) < 2:
        raise InputError("training needs at least 2 answer classes present")
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    n = len(problems)
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = [(problems[i].content, problems[i].answer) for i in idx]
            loss, grads = net.batch_loss_and_grads(batch)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch starting at {start}")
            sgd_update(net, grads, config)
            total += loss * len(idx)
        mean_loss = total / n
        history.append(mean_loss)
        if mean_loss < config.target_loss:
            break
    return history


def training_accuracy(net: Network, problems) -> float:
    correct = sum(1 for p in problems if net.predict(p.content) == p.answer)
    return correct / len(problems)


# ---------------------------------------------------------------------------
# representation extraction and thresholding


@dataclass
class RepresentationMatrix:
    """Sigmoid pre-output activations per item, rows aligned to item_ids."""

    item_ids: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape[0] != len(self.item_ids):
            raise InputError("representation rows do not match item ids")


def extract_representations(net: Network,
                            problems: list[ProblemInstance]) -> RepresentationMatrix:
    """Deterministic pre-output rows for each problem, values in (0, 1)."""
    if not hasattr(net, "representation"):
        raise ConfigurationError(
            "network has no designated pre-output layer to extract")
    rows = [net.representation(p.content) for p in problems]
    return RepresentationMatrix([p.item_id for p in problems],
                                np.stack(rows) if rows else np.zeros((0, 0)))


def kc_name_for_dim(k: int) -> str:
    return f"rep_{k:02d}"


def threshold_qmatrix(reps: RepresentationMatrix,
                      tau: float = THRESHOLD_DEFAULT
                      ) -> tuple[QMatrix, SanitationReport]:
    """Binarize representations at tau and sanitize the result.

    Cell (p, k) is 1 iff reps[p][k] > tau. Columns are named rep_00,
    rep_01, ... before sanitation merges or drops them.
    """
    if not 0.0 < tau < 1.0:
        raise ConfigurationError("tau must lie strictly between 0 and 1")
    cells = (reps.values > tau).astype(np.int64)
    names = [kc_name_for_dim(k) for k in range(reps.values.shape[1])]
    raw = QMatrix(list(reps.item_ids), names, cells)
    return sanitize_qmatrix(raw)


# ---------------------------------------------------------------------------
# representation TSV and checkpoint plumbing


def write_representations(path, reps: RepresentationMatrix) -> None:
    n_dims = reps.values.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("item_id\t" + "\t".join(kc_name_for_dim(k)
                                         for k in range(n_dims)) + "\n")
        for item, row in zip(reps.item_ids, reps.values):
            vals = "\t".join(format(v, ".17g") for v in row)
            fh.write(f"{item}\t{vals}\n")


def read_representations(path) -> RepresentationMatrix:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("item_id\t"):
        raise InputError(f"{path}: expected header item_id<TAB>rep columns")
    n_cols = len(lines[0].split("\t"))
    item_ids, rows = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_cols:
            raise InputError(f"{path}: line {ln}: expected {n_cols} columns")
        item_ids.append(fields[0])
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise InputError(f"{path}: line {ln}: bad value") from None
    return RepresentationMatrix(item_ids, np.array(rows, dtype=np.float64))


def save_network(path, net: Network) -> None:
    save_checkpoint(path, net.meta(), net.parameters())


def load_network(path) -> Network:
    """Rebuild a checkpointed network, restoring exact parameters."""
    meta, params = load_checkpoint(path)
    variant = meta.get("architecture")
    if variant == ImageCNN.variant:
        spec = ImageArchSpec(
            in_shape=tuple(meta["in_shape"]), n_classes=meta["n_classes"],
            filters=meta["filters"], kernel=meta["kernel"],
            stride=meta["stride"], rep_size=meta["rep_size"])
        net: Network = ImageCNN(spec)
    elif variant == ClozeLSTM.variant:
        spec = ClozeArchSpec(
            n_classes=meta["n_classes"], embedding_dim=meta["embedding_dim"],
            lstm_hidden=meta["lstm_hidden"], combine_size=meta["combine_size"],
            rep_size=meta["rep_size"])
        net = ClozeLSTM(spec, CharVocab(meta["vocab_chars"]))
    else:
        raise InputError(f"{path}: unknown architecture {variant!r}")
    live = net.parameters()
    if set(live) != set(params):
        raise InputError(f"{path}: parameter names do not match architecture")
    for name, arr in params.items():
        if live[name].shape != arr.shape:
            raise InputError(
                f"{path}: {name} has shape {arr.shape}, expected "
                f"{live[name].shape}")
        live[name][...] = arr
    return net
