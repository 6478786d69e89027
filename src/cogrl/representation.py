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

from dataclasses import dataclass
from itertools import chain
from numbers import Integral

import numpy as np

from .cogmodel import QMatrix, SanitationReport, sanitize_qmatrix
from .errors import (
    ConfigurationError,
    DimensionError,
    InputError,
    NumericError,
    read_table,
    write_lines,
)
from .neuralcore.checkpoint import load_checkpoint, save_checkpoint
from .neuralcore.layers import ConvLayer, DenseLayer, EmbeddingTable, LSTMCell
from .neuralcore.network import Network, check_finite
from .neuralcore.train import SGDConfig, sgd_update
from .problems import ClozeContent, ProblemInstance

REP_SIZE_DEFAULT = 50
THRESHOLD_DEFAULT = 0.95


def _is_size(v, least: int = 1) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool) and v >= least


def _check_sizes(spec, **least: int) -> None:
    """ConfigurationError unless each named field of ``spec`` is an integer
    of at least its bound."""
    for name, bound in least.items():
        if not _is_size(getattr(spec, name), bound):
            raise ConfigurationError(f"{name} must be an integer of at least "
                                     f"{bound}, got {getattr(spec, name)!r}")


@dataclass
class ImageArchSpec:
    """Convolutional architecture over fixed-size channel-first images.

    The fields are the checkpoint meta; ``in_shape`` is normalized to a
    tuple of 3 integers.
    """

    in_shape: tuple[int, int, int]
    n_classes: int
    filters: int = 10
    kernel: int = 10
    stride: int = 5
    rep_size: int = REP_SIZE_DEFAULT

    def __post_init__(self):
        shape = self.in_shape
        if not (isinstance(shape, (tuple, list)) and len(shape) == 3
                and all(map(_is_size, shape))):
            raise ConfigurationError(
                f"in_shape must be 3 positive integers, got {shape!r}")
        self.in_shape = tuple(shape)
        _check_sizes(self, n_classes=2, filters=1, kernel=1, stride=1,
                     rep_size=1)


@dataclass
class ClozeArchSpec:
    """Bidirectional character LSTM over text split at the blank. The
    fields are the checkpoint meta, with the vocabulary beside them."""

    n_classes: int
    embedding_dim: int = 32
    lstm_hidden: int = 128
    combine_size: int = 256
    rep_size: int = REP_SIZE_DEFAULT

    def __post_init__(self):
        _check_sizes(self, n_classes=2, embedding_dim=1, lstm_hidden=1,
                     combine_size=1, rep_size=1)
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

    def __init__(self, spec: ImageArchSpec, seed: int = 0):
        rng = np.random.default_rng(seed)
        c, h, w = spec.in_shape
        self.spec = spec
        self.conv = ConvLayer(c, spec.filters, spec.kernel, spec.stride,
                              rng=rng)
        _, oh, ow = self.conv.output_shape(h, w)
        self.conv_out_shape = (spec.filters, oh, ow)
        self.flat_size = spec.filters * oh * ow
        self.rep = DenseLayer(self.flat_size, spec.rep_size, "sigmoid",
                              rng=rng)
        self.out = DenseLayer(spec.rep_size, spec.n_classes, "identity",
                              rng=rng)

    def body_forward(self, images):
        """Flattened conv maps of a (B, C, H, W) stack of images."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[1:] != self.spec.in_shape:
            raise DimensionError(
                f"expected a (B, {', '.join(map(str, self.spec.in_shape))}) "
                f"minibatch of images, got shape {images.shape}")
        conv_y, conv_cache = self.conv.forward(images)
        return check_finite(conv_y, "conv").reshape(len(images),
                                                    self.flat_size), conv_cache

    def body_backward(self, d_flat, conv_cache):
        return _prefixed(conv=self.conv.backward(
            d_flat.reshape((len(d_flat),) + self.conv_out_shape), conv_cache))

    def body_parameters(self):
        return _prefixed(conv={"kernels": self.conv.kernels,
                               "gains": self.conv.gains})


class ClozeLSTM(Network):
    """Bidirectional character LSTM around the blank.

    The pre-blank characters feed a forward LSTM in reading order and the
    post-blank characters feed a backward LSTM in reverse order; an empty
    side contributes that direction's zero initial state. The two final
    hidden states are concatenated, passed through a tanh combine layer,
    then the sigmoid pre-output and the class logits.

    A minibatch is collated into two time-major id matrices, prefix and
    reversed suffix, each left-padded to its longest row, with masks that
    mark the real characters; both LSTMs run each matrix in one pass.
    """

    variant = "cloze_lstm"

    def __init__(self, spec: ClozeArchSpec, vocab: CharVocab, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.vocab = vocab
        self.embed = EmbeddingTable(vocab.size, spec.embedding_dim, rng=rng)
        self.fwd = LSTMCell(spec.embedding_dim, spec.lstm_hidden, rng=rng)
        self.bwd = LSTMCell(spec.embedding_dim, spec.lstm_hidden, rng=rng)
        self.combine = DenseLayer(2 * spec.lstm_hidden, spec.combine_size,
                                  "tanh", rng=rng)
        self.rep = DenseLayer(spec.combine_size, spec.rep_size, "sigmoid",
                              rng=rng)
        self.out = DenseLayer(spec.rep_size, spec.n_classes, "identity",
                              rng=rng)

    def collate(self, contents):
        """((T1, B) prefix ids, mask), ((T2, B) reversed-suffix ids, mask)."""
        if not all(isinstance(c, ClozeContent) for c in contents):
            raise DimensionError("cloze network expects ClozeContent input")
        return (_left_pad([self.vocab.encode(c.prefix) for c in contents]),
                _left_pad([self.vocab.encode(c.suffix)[::-1] for c in contents]))

    def body_forward(self, batch):
        """Combine-layer rows of a collated minibatch."""
        if not isinstance(batch, tuple):
            raise DimensionError(
                f"cloze network expects a minibatch made by collate, got "
                f"{type(batch).__name__}")
        states, steps = [], []
        for cell, (ids, mask) in zip((self.fwd, self.bwd), batch):
            h, _, caches = cell.run(self.embed.forward(ids), mask)
            states.append(h)
            steps.append(caches)
        both = check_finite(np.concatenate(states, axis=1), "lstm")
        comb_y, comb_cache = self.combine.forward(both)
        return check_finite(comb_y, "combine"), (batch, steps, comb_cache)

    def body_backward(self, d_comb, cache):
        batch, steps, comb_cache = cache
        d_both, comb_grads = self.combine.backward(d_comb, comb_cache)
        cell_grads, ids, dvecs = [], [], []
        for cell, (side_ids, mask), caches, dh in zip(
                (self.fwd, self.bwd), batch, steps, np.split(d_both, 2, axis=1)):
            dxs, grads = cell.backward_through_time(caches, dh)
            cell_grads.append(grads)
            # padded steps are masked out: only real characters get gradient
            ids.append(side_ids[mask])
            dvecs.append(dxs[mask])
        d_embed = self.embed.backward(np.concatenate(ids), np.concatenate(dvecs))
        return _prefixed(embed={"vectors": d_embed}, fwd=cell_grads[0],
                         bwd=cell_grads[1], combine=comb_grads)

    def body_parameters(self):
        cells = ("w_x", "w_h", "b_x", "b_h")
        return _prefixed(
            embed={"vectors": self.embed.vectors},
            fwd={k: getattr(self.fwd, k) for k in cells},
            bwd={k: getattr(self.bwd, k) for k in cells},
            combine={"weights": self.combine.weights,
                     "biases": self.combine.biases})

    def meta(self) -> dict:
        return {**super().meta(), "vocab_chars": "".join(self.vocab.chars)}


def _prefixed(**layers) -> dict[str, np.ndarray]:
    """Flatten {layer: {key: array}} into {"layer.key": array}, in order."""
    return {f"{layer}.{key}": arr
            for layer, arrays in layers.items() for key, arr in arrays.items()}


def _left_pad(seqs):
    """(T, B) id matrix with each sequence right-aligned, and its mask."""
    lengths = np.array([len(seq) for seq in seqs], dtype=np.intp)
    steps = int(lengths.max(initial=0))
    mask = np.arange(steps)[:, None] >= steps - lengths
    ids = np.zeros(mask.shape, dtype=np.intp)
    ids.T[mask.T] = np.concatenate(seqs)  # row b's real steps, in order
    return ids, mask


def build_image_cnn(spec: ImageArchSpec, seed: int = 0) -> ImageCNN:
    return ImageCNN(spec, seed)


def build_cloze_lstm(spec: ClozeArchSpec, vocab: CharVocab,
                     seed: int = 0) -> ClozeLSTM:
    return ClozeLSTM(spec, vocab, seed)


# ---------------------------------------------------------------------------
# training


def check_training_set(problems: list[ProblemInstance],
                       source: str = "training set") -> None:
    """InputError, prefixed with ``source``, unless ``problems`` can train a
    content network: at least 2 problems, at least 2 answer classes present
    and, for cloze questions, some text besides the blanks to build a
    vocabulary from."""
    if len(problems) < 2:
        raise InputError(f"{source}: training needs at least 2 problems")
    if len({p.answer for p in problems}) < 2:
        raise InputError(
            f"{source}: training needs at least 2 answer classes present")
    if all(isinstance(p.content, ClozeContent)
           and not p.content.prefix + p.content.suffix for p in problems):
        raise InputError(
            f"{source}: the questions have no text besides their blanks")


def train_model(net: Network, problems: list[ProblemInstance],
                config: SGDConfig) -> list[float]:
    """Minibatch SGD with seeded per-epoch shuffling; returns the per-epoch
    mean-loss history. Stops early once the mean epoch loss falls below
    config.target_loss."""
    check_training_set(problems)
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


# problems per batched readout pass: at most one training minibatch's memory
READOUT_CHUNK = 32


def _read_out(net: Network, problems, forward) -> list:
    """``forward`` of each collated run of READOUT_CHUNK problems."""
    return [forward(net.collate([p.content
                                 for p in problems[s:s + READOUT_CHUNK]]))
            for s in range(0, len(problems), READOUT_CHUNK)]


def training_accuracy(net: Network, problems) -> float:
    logits = np.concatenate(
        _read_out(net, problems, lambda batch: net.forward_logits(batch)[0]))
    return float(np.mean(np.argmax(logits, axis=1)
                         == [p.answer for p in problems]))


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
    rows = _read_out(net, problems, net.representation)
    return RepresentationMatrix([p.item_id for p in problems],
                                np.concatenate(rows) if rows else np.zeros((0, 0)))


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
    write_lines(path, chain(
        ["item_id\t" + "\t".join(kc_name_for_dim(k) for k in range(n_dims))],
        (item + "\t" + "\t".join(format(v, ".17g") for v in row)
         for item, row in zip(reps.item_ids, reps.values))))


def read_representations(path) -> RepresentationMatrix:
    item_ids, rows = [], []
    for ln, fields in read_table(path)[1]:
        item_ids.append(fields[0])
        try:
            rows.append([float(v) for v in fields[1:]])
            # closed: a saturated sigmoid writes exactly 0 or 1; NaN fails
            if not all(0.0 <= v <= 1.0 for v in rows[-1]):
                raise ValueError
        except ValueError:
            raise InputError(f"{path}: line {ln}: bad value, need a number "
                             f"in [0, 1]") from None
    if not rows:
        raise InputError(f"{path}: the table has no items")
    return RepresentationMatrix(item_ids, np.array(rows, dtype=np.float64))


def save_network(path, net: Network) -> None:
    save_checkpoint(path, net.meta(), net.parameters())


def load_network(path) -> Network:
    """Rebuild a checkpointed network, restoring exact parameters.

    The meta fields other than ``architecture`` (and the cloze network's
    ``vocab_chars``) go to the architecture's spec constructor; a missing,
    unknown or ill-typed field ends in InputError.
    """
    meta, params = load_checkpoint(path)
    fields = dict(meta)
    variant = fields.pop("architecture", None)
    try:
        if variant == ImageCNN.variant:
            net: Network = ImageCNN(ImageArchSpec(**fields))
        elif variant == ClozeLSTM.variant:
            chars = fields.pop("vocab_chars", None)
            if not isinstance(chars, str):
                raise ConfigurationError(
                    f"vocab_chars must be a string, got {chars!r}")
            net = ClozeLSTM(ClozeArchSpec(**fields), CharVocab(chars))
        else:
            raise InputError(f"{path}: unknown architecture {variant!r}")
    except (TypeError, ConfigurationError, DimensionError) as exc:
        raise InputError(f"{path}: bad architecture meta: {exc}") from None
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
