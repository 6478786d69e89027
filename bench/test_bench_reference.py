"""Tests of the benchmark's reference computations on cases worked by hand.

Each expected value below comes from the arithmetic written next to it, not
from running cogrl.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def test_read_checkpoint(tmp_path):
    path = tmp_path / "tiny.ckpt"
    path.write_text("cogrl-checkpoint 1\n"
                    'meta {"architecture": "image_cnn", "stride": 2}\n'
                    "param a 2 2 3\n1 2 3 4 5 6\n"
                    "param b 1 2\n0.5 -0.25\n"
                    "end\n")
    meta, params = ref.read_checkpoint(path)
    assert meta == {"architecture": "image_cnn", "stride": 2}
    assert params["a"].tolist() == [[1, 2, 3], [4, 5, 6]]
    assert params["b"].tolist() == [0.5, -0.25]


def test_read_checkpoint_rejects_wrong_value_count(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("cogrl-checkpoint 1\nmeta {}\nparam a 1 3\n1 2\nend\n")
    with pytest.raises(ValueError):
        ref.read_checkpoint(path)


def test_read_pgm_keeps_a_raster_starting_with_whitespace(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([10, 255]))  # 10 is "\n"
    assert ref.read_pgm(path).tolist() == [[[10 / 255, 1.0]]]


def _dense(rows):
    rows = np.array(rows, dtype=np.float64)
    return rows, np.zeros(rows.shape[0])


def test_cnn_forward_true_convolution():
    # x and k below; R = 2, stride 1, so output (a, b) is
    # k00*x[a+1,b+1] + k01*x[a+1,b] + k10*x[a,b+1] + k11*x[a,b]
    # = x[a+1,b+1] + 2*x[a,b] -> [[1+2, 3+4], [0+0, 1+2]] = [[3, 7], [0, 3]]
    x = np.array([[[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [2.0, 0.0, 1.0]]])
    w_rep, b_rep = _dense(np.eye(4))
    w_out, b_out = _dense([[1, 0, 0, 0]])
    params = {"conv.kernels": np.array([[[[1.0, 0.0], [0.0, 2.0]]]]),
              "conv.gains": np.array([0.5]),
              "rep.weights": w_rep, "rep.biases": b_rep,
              "out.weights": w_out, "out.biases": b_out}
    rep, logits = ref.cnn_forward(params, 1, x)
    expected = [sig(0.5 * math.tanh(z)) for z in (3.0, 7.0, 0.0, 3.0)]
    assert rep == pytest.approx(expected, abs=1e-15)
    assert logits == pytest.approx([expected[0]], abs=1e-15)


def test_cnn_forward_samples_at_the_stride():
    # a 1x1 kernel of 2 at stride 2 reads x[0,0], x[0,2], x[2,0], x[2,2]
    x = np.array([[[1.0, 9.0, 0.0], [9.0, 9.0, 9.0], [2.0, 9.0, 1.0]]])
    w_rep, b_rep = _dense(np.eye(4))
    params = {"conv.kernels": np.array([[[[2.0]]]]),
              "conv.gains": np.array([1.0]),
              "rep.weights": w_rep, "rep.biases": b_rep,
              "out.weights": w_rep, "out.biases": b_rep}
    rep, _ = ref.cnn_forward(params, 2, x)
    assert rep == pytest.approx([sig(math.tanh(z)) for z in (2, 0, 4, 2)],
                                abs=1e-15)


def test_lstm_forward_reads_prefix_forward_and_suffix_backward():
    zeros = np.zeros(4)
    params = {
        # ids: unknown 0, "a" 1, "b" 2
        "embed.vectors": np.array([[0.0], [1.0], [-1.0]]),
        # forward cell: input weight 1 on every gate, h feeds the g gate
        "fwd.w_x": np.ones((4, 1)), "fwd.w_h": np.array([[0.0], [0.0], [1.0], [0.0]]),
        "fwd.b_x": zeros, "fwd.b_h": zeros,
        # backward cell: input weights (2, 0, 1, 0), hidden bias 1 on o
        "bwd.w_x": np.array([[2.0], [0.0], [1.0], [0.0]]),
        "bwd.w_h": np.zeros((4, 1)),
        "bwd.b_x": zeros, "bwd.b_h": np.array([0.0, 0.0, 0.0, 1.0]),
        "combine.weights": np.eye(2), "combine.biases": np.zeros(2),
        "rep.weights": np.array([[1.0, 1.0]]), "rep.biases": np.zeros(1),
        "out.weights": np.array([[1.0], [-1.0]]), "out.biases": np.zeros(2),
    }
    # prefix "a?" (lowercased "A?"): step 1 reads x = 1 from zero state
    c1 = sig(1) * math.tanh(1)
    h1 = sig(1) * math.tanh(c1)
    # step 2 reads the unknown id 0 (x = 0): gates i, f, o = 0.5; g = tanh(h1)
    c2 = 0.5 * c1 + 0.5 * math.tanh(h1)
    h_f = 0.5 * math.tanh(c2)
    # suffix "b" reversed: x = -1 -> i = sig(-2), f = 0.5, g = tanh(-1), o = sig(1)
    h_b = sig(1) * math.tanh(sig(-2) * math.tanh(-1))
    rep_value = sig(math.tanh(h_f) + math.tanh(h_b))
    rep, logits = ref.lstm_forward(params, "ab", "A?___b")
    assert rep == pytest.approx([rep_value], abs=1e-15)
    assert logits == pytest.approx([rep_value, -rep_value], abs=1e-15)


def test_lstm_forward_empty_side_is_the_zero_state():
    params = {"embed.vectors": np.array([[0.0], [1.0]]),
              "combine.weights": np.eye(2), "combine.biases": np.zeros(2),
              "rep.weights": np.array([[1.0, 1.0]]), "rep.biases": np.zeros(1),
              "out.weights": np.array([[1.0]]), "out.biases": np.zeros(1)}
    for side in ("fwd", "bwd"):
        params.update({f"{side}.w_x": np.ones((4, 1)),
                       f"{side}.w_h": np.zeros((4, 1)),
                       f"{side}.b_x": np.zeros(4), f"{side}.b_h": np.zeros(4)})
    # nothing before or after the blank: both final states are 0
    rep, _ = ref.lstm_forward(params, "a", "___")
    assert rep == pytest.approx([0.5], abs=1e-15)


AFM_ITEMS = {"A": ["k1"], "B": ["k1", "k2"]}
AFM_THETA = {"s1": 0.5, "s2": -1.0}
AFM_BETA = {"k1": 0.2, "k2": -0.4}
AFM_GAMMA = {"k1": 0.1, "k2": 0.3}
# listed out of order: counts must follow each student's order column
AFM_ROWS = [("s2", "B", 1, 1), ("s1", "A", 1, 3), ("s1", "A", 1, 1),
            ("s1", "B", 0, 2)]


def _bernoulli(y, eta):
    return y * eta - math.log1p(math.exp(eta))


def test_afm_penalized_loglik_counts_opportunities_per_student():
    expected = (
        _bernoulli(1, 0.5 + 0.2)                      # s1 A, k1 seen 0 times
        + _bernoulli(0, 0.5 + (0.2 + 0.1) - 0.4)     # s1 B, k1 once, k2 never
        + _bernoulli(1, 0.5 + 0.2 + 2 * 0.1)         # s1 A, k1 twice
        + _bernoulli(1, -1.0 + 0.2 - 0.4)            # s2 B, nothing before
        - 0.5 * (0.5 ** 2 + 1.0 ** 2))               # theta penalty
    got = ref.afm_penalized_loglik(AFM_ROWS, AFM_ITEMS, AFM_THETA, AFM_BETA,
                                   AFM_GAMMA)
    assert got == pytest.approx(expected, abs=1e-14)
    # beta/gamma penalty: 0.5 * 2 * (0.04 + 0.16 + 0.01 + 0.09) = 0.3
    penalized = ref.afm_penalized_loglik(AFM_ROWS, AFM_ITEMS, AFM_THETA,
                                         AFM_BETA, AFM_GAMMA, l2_beta_gamma=2.0)
    assert got - penalized == pytest.approx(0.3, abs=1e-14)


def test_pearson():
    # dx = (-1, 0, 1), dy = (-7/3, -1/3, 8/3): sxy = 5, sxx = 2, syy = 114/9
    assert ref.pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(
        15 / math.sqrt(228), abs=1e-15)
    assert ref.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_rounding_bound_covers_every_rounding():
    xs, ys, h = [0.1, 0.4, 0.35, 0.9], [0.2, 0.1, 0.5, 0.45], 5e-4
    bound = ref.pearson_rounding_bound(xs, ys, h)
    r = ref.pearson(xs, ys)
    for mask in range(256):
        signs = [1 if mask >> k & 1 else -1 for k in range(8)]
        moved = ref.pearson([x + s * h for x, s in zip(xs, signs[:4])],
                            [y + s * h for y, s in zip(ys, signs[4:])])
        assert abs(moved - r) <= bound


def test_sample_afm_log_is_seeded_and_ordered():
    cells = np.array([[1, 0], [0, 1], [1, 1]])
    draw = lambda: workloads.sample_afm_log(  # noqa: E731
        np.random.default_rng(4), ["i0", "i1", "i2"], ["k0", "k1"], cells, 3, 2)
    rows, truth = draw()
    assert (rows, truth) == draw()
    assert [(s, o) for s, _, _, o in rows] == [
        (f"s{s:03d}", o) for s in range(3) for o in (1, 2)]
    assert {y for _, _, y, _ in rows} <= {0, 1}
    assert min(truth["gamma"].values()) >= 0.0
