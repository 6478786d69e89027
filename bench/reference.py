"""Reference computations for the benchmark's output checks.

Written apart from ``cogrl`` and importing nothing from it, so a change to
the program cannot change what its outputs are checked against. Each
function follows the documented behaviour (the checkpoint format, the two
architectures, the Additive Factors Model) rather than the program's code,
and each is tested against a tiny case worked by hand in
``test_bench_reference.py``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

BLANK = re.compile(r"_{3,}")


def sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


# ---------------------------------------------------------------------------
# files


def read_checkpoint(path):
    """Parse a ``cogrl-checkpoint 1`` file into (meta, {name: array})."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[0] != "cogrl-checkpoint 1" or not lines[1].startswith("meta "):
        raise ValueError(f"{path}: not a cogrl-checkpoint 1 file")
    meta = json.loads(lines[1][len("meta "):])
    params = {}
    i = 2
    while lines[i] != "end":
        head = lines[i].split(" ")
        if head[0] != "param":
            raise ValueError(f"{path}: line {i + 1}: expected a param record")
        ndim = int(head[2])
        shape = tuple(int(d) for d in head[3:3 + ndim])
        values = [float(v) for v in lines[i + 1].split(" ")]
        if len(values) != math.prod(shape):
            raise ValueError(f"{path}: {head[1]}: {len(values)} values for "
                             f"shape {shape}")
        params[head[1]] = np.array(values, dtype=np.float64).reshape(shape)
        i += 2
    return meta, params


def read_tsv(path):
    """(header, rows) of a tab-separated file with a header line."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def read_pgm(path):
    """A binary P5 image as a (1, H, W) array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    # one whitespace byte ends the header; the raster may start with one
    head = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    if head is None:
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = (int(v) for v in head.groups())
    pixels = np.frombuffer(blob[head.end():head.end() + w * h], dtype=np.uint8)
    return pixels.reshape(1, h, w).astype(np.float64) / maxval


# ---------------------------------------------------------------------------
# forward passes


def cnn_forward(params, stride, image):
    """(pre-output, logits) of the image CNN for one (C, H, W) image.

    Conv map j is ``gain_j * tanh(sum_i k_ji (*) x_i)`` with ``(*)`` true
    convolution (kernel indices run backwards over the input), sampled at
    the stride without padding; the maps are flattened channel-major into a
    sigmoid pre-output layer and an identity logit layer.
    """
    k = params["conv.kernels"]
    f, c, r, _ = k.shape
    _, h, w = image.shape
    oh, ow = (h - r) // stride + 1, (w - r) // stride + 1
    # true convolution == cross-correlation with the spatially flipped kernel
    flipped = k[:, :, ::-1, ::-1].reshape(f, c * r * r)
    patches = np.array([image[:, stride * a:stride * a + r,
                              stride * b:stride * b + r].ravel()
                        for a in range(oh) for b in range(ow)])
    maps = np.tanh(patches @ flipped.T).T * params["conv.gains"][:, None]
    rep = sigmoid(params["rep.weights"] @ maps.ravel() + params["rep.biases"])
    return rep, params["out.weights"] @ rep + params["out.biases"]


def _lstm_final_state(params, prefix, ids):
    """Final hidden state of one LSTM direction (gate order i, f, g, o)."""
    w_x, w_h = params[prefix + ".w_x"], params[prefix + ".w_h"]
    b = params[prefix + ".b_x"] + params[prefix + ".b_h"]
    n = w_h.shape[1]
    h = np.zeros(n)
    c = np.zeros(n)
    for x in params["embed.vectors"][ids]:
        a = w_x @ x + w_h @ h + b
        i, f, g, o = (sigmoid(a[:n]), sigmoid(a[n:2 * n]),
                      np.tanh(a[2 * n:3 * n]), sigmoid(a[3 * n:]))
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def lstm_forward(params, vocab_chars, text):
    """(pre-output, logits) of the cloze bi-LSTM for one question text.

    Characters are lowercased and mapped to 1 + their index in the sorted
    vocabulary (0 for unknown). A forward LSTM reads the text before the
    blank, a backward LSTM reads the text after it in reverse; their final
    hidden states feed a tanh combine layer, the sigmoid pre-output and the
    identity logits.
    """
    blank = BLANK.search(text)
    ids = {ch: i + 1 for i, ch in enumerate(vocab_chars)}

    def encode(s):
        return np.array([ids.get(ch, 0) for ch in s.lower()], dtype=np.intp)

    h_f = _lstm_final_state(params, "fwd", encode(text[:blank.start()]))
    h_b = _lstm_final_state(params, "bwd", encode(text[blank.end():])[::-1])
    comb = np.tanh(params["combine.weights"] @ np.concatenate([h_f, h_b])
                   + params["combine.biases"])
    rep = sigmoid(params["rep.weights"] @ comb + params["rep.biases"])
    return rep, params["out.weights"] @ rep + params["out.biases"]


# ---------------------------------------------------------------------------
# Additive Factors Model


def afm_penalized_loglik(rows, item_kcs, theta, beta, gamma,
                         l2_theta=1.0, l2_beta_gamma=0.0):
    """L2-penalized Bernoulli log-likelihood of the AFM.

    ``rows`` are (student, item, outcome, order) tuples; ``item_kcs`` maps an
    item to the KCs it needs. The opportunity count of (student, KC) is the
    number of that student's earlier rows (by order) whose item needs the
    KC. The penalty is ``l2_theta/2 * sum theta^2`` over ``theta``'s
    students plus ``l2_beta_gamma/2 * sum (beta^2 + gamma^2)``.
    """
    seen: dict[tuple[str, str], int] = {}
    terms = []
    for student, item, outcome, _ in sorted(rows, key=lambda r: (r[0], r[3])):
        eta = theta[student]
        for kc in item_kcs[item]:
            eta += beta[kc] + gamma[kc] * seen.get((student, kc), 0)
        terms.append(outcome * eta - float(np.logaddexp(0.0, eta)))
        for kc in item_kcs[item]:
            seen[(student, kc)] = seen.get((student, kc), 0) + 1
    penalty = 0.5 * l2_theta * math.fsum(v * v for v in theta.values())
    penalty += 0.5 * l2_beta_gamma * math.fsum(
        v * v for v in list(beta.values()) + list(gamma.values()))
    return math.fsum(terms) - penalty


# ---------------------------------------------------------------------------
# correlation


def pearson(xs, ys):
    """Pearson product-moment correlation of two equal-length sequences."""
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    return sxy / math.sqrt(math.fsum(a * a for a in dx)
                           * math.fsum(b * b for b in dy))


def pearson_rounding_bound(xs, ys, half_unit):
    """Twice the first-order change in ``pearson(xs, ys)`` when every input
    moves by up to ``half_unit`` (the error of printing them rounded)."""
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    norm = math.sqrt(sxx * syy)
    slope = math.fsum(abs(b / norm - r * a / sxx) + abs(a / norm - r * b / syy)
                      for a, b in zip(dx, dy))
    return 2.0 * half_unit * slope
