"""Layer-level oracles: direct transcriptions checked against the library."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cogrl.errors import DimensionError, InputError
from cogrl.neuralcore.checkpoint import CHUNK
from cogrl.neuralcore import (
    ACTIVATIONS,
    ConvLayer,
    DenseLayer,
    EmbeddingTable,
    LSTMCell,
    Network,
    SGDConfig,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sgd_update,
    sigmoid,
    softmax_cross_entropy,
)


def conv_reference(x, kernels, gains, stride):
    """Nested-loop true convolution: y_j = g_j tanh(sum_i (x_i * k_ij)) with
    (x*k)_ab = sum_pq x[a-p, b-q] k[p, q], valid positions only."""
    out_ch, in_ch, r, _ = kernels.shape
    _, h, w = x.shape
    oh = (h - r) // stride + 1
    ow = (w - r) // stride + 1
    y = np.zeros((out_ch, oh, ow))
    for j in range(out_ch):
        for a in range(oh):
            for b in range(ow):
                pos_i = r - 1 + stride * a
                pos_j = r - 1 + stride * b
                acc = 0.0
                for i in range(in_ch):
                    for p in range(r):
                        for q in range(r):
                            acc += x[i, pos_i - p, pos_j - q] * kernels[j, i, p, q]
                y[j, a, b] = gains[j] * math.tanh(acc)
    return y


def conv_tensordot_forward(x, kernels, gains, stride):
    """The one-sample forward pass the batched ConvLayer replaced: one
    tensordot per kernel offset over a (C, H, W) input. Returns (y, tanh)."""
    out_ch, _, r, _ = kernels.shape
    s = stride
    oh = (x.shape[1] - r) // s + 1
    ow = (x.shape[2] - r) // s + 1
    z = np.zeros((out_ch, oh, ow))
    for p in range(r):
        for q in range(r):
            patch = x[:,
                      r - 1 - p: r - 1 - p + s * (oh - 1) + 1: s,
                      r - 1 - q: r - 1 - q + s * (ow - 1) + 1: s]
            z += np.tensordot(kernels[:, :, p, q], patch, axes=([1], [0]))
    t = np.tanh(z)
    return gains[:, None, None] * t, t


def conv_tensordot_backward(x, t, dy, kernels, gains, stride):
    """The one-sample backward pass the batched ConvLayer replaced; returns
    (dkernels, dgains)."""
    r, s = kernels.shape[2], stride
    oh, ow = dy.shape[1], dy.shape[2]
    dgains = np.sum(dy * t, axis=(1, 2))
    dz = dy * gains[:, None, None] * (1.0 - t * t)
    dk = np.zeros_like(kernels)
    for p in range(r):
        for q in range(r):
            isl = slice(r - 1 - p, r - 1 - p + s * (oh - 1) + 1, s)
            jsl = slice(r - 1 - q, r - 1 - q + s * (ow - 1) + 1, s)
            dk[:, :, p, q] = np.tensordot(dz, x[:, isl, jsl], axes=([1, 2], [1, 2]))
    return dk, dgains


def lstm_step_full_reference(cell, x_t, h_prev, c_prev):
    """One LSTM step on the stacked arrays, written apart from the cell's
    own gate routine: four gates from one pre-activation vector, each
    through its own nonlinearity. Returns (h_t, c_t, cache of the step's
    input, states and gates)."""
    a = cell.w_x @ x_t + cell.b_x + cell.w_h @ h_prev + cell.b_h
    ai, af, ag, ao = np.split(a, 4)
    i, f, g, o = sigmoid(ai), sigmoid(af), np.tanh(ag), sigmoid(ao)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (x_t, h_prev, c_prev, i, f, g, o, tc)


def lstm_run_reference(cell, xs):
    """The one-sequence LSTM run the time-major batched run replaced: one
    reference step per row of a (T, input_size) sequence, caching all gates."""
    h = np.zeros(cell.hidden_size)
    c = np.zeros(cell.hidden_size)
    caches = []
    for x_t in xs:
        h, c, cache = lstm_step_full_reference(cell, x_t, h, c)
        caches.append(cache)
    return h, c, caches


def lstm_bptt_reference(cell, caches, dh_last):
    """The one-sequence BPTT the batched one replaced, reading the stored
    gates; returns (dxs, grads)."""
    dwx = np.zeros_like(cell.w_x)
    dwh = np.zeros_like(cell.w_h)
    dbx = np.zeros_like(cell.b_x)
    dbh = np.zeros_like(cell.b_h)
    dxs = np.zeros((len(caches), cell.input_size))
    dh = np.asarray(dh_last, dtype=np.float64)
    dc = np.zeros(cell.hidden_size)
    for t in range(len(caches) - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, tc = caches[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_next = dc * f
        da = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ])
        dwx += np.outer(da, x_t)
        dwh += np.outer(da, h_prev)
        dbx += da
        dbh += da
        dxs[t] = cell.w_x.T @ da
        dh = cell.w_h.T @ da
        dc = dc_next
    return dxs, {"w_x": dwx, "w_h": dwh, "b_x": dbx, "b_h": dbh}


def cloze_sample_reference(net, content, label):
    """Loss and gradients of one cloze sample by the per-sample path the
    batched ClozeLSTM replaced: reference LSTM runs and BPTT, one-sample
    dense layers and the one-sample softmax head."""
    pre_ids = net.vocab.encode(content.prefix)
    post_ids = net.vocab.encode(content.suffix)[::-1]
    h_f, _, f_caches = lstm_run_reference(net.fwd, net.embed.vectors[pre_ids])
    h_b, _, b_caches = lstm_run_reference(net.bwd, net.embed.vectors[post_ids])
    # the dense layers take only minibatches: run them on a batch of one
    comb_y, comb_cache = net.combine.forward(np.concatenate([h_f, h_b])[None])
    rep_y, rep_cache = net.rep.forward(comb_y)
    logits, out_cache = net.out.forward(rep_y)
    loss, _, dlogits = softmax_cross_entropy_reference(logits[0], label)
    d_rep, out_grads = net.out.backward(dlogits[None], out_cache)
    d_comb, rep_grads = net.rep.backward(d_rep, rep_cache)
    d_both, comb_grads = net.combine.backward(d_comb, comb_cache)
    h = net.spec.lstm_hidden
    d_pre, fwd_grads = lstm_bptt_reference(net.fwd, f_caches, d_both[0, :h])
    d_post, bwd_grads = lstm_bptt_reference(net.bwd, b_caches, d_both[0, h:])
    grads = {"embed.vectors": net.embed.backward(pre_ids, d_pre)
             + net.embed.backward(post_ids, d_post)}
    for prefix, cell_grads in (("fwd", fwd_grads), ("bwd", bwd_grads)):
        for key, g in cell_grads.items():
            grads[f"{prefix}.{key}"] = g
    for layer, layer_grads in (("combine", comb_grads), ("rep", rep_grads),
                               ("out", out_grads)):
        for key, g in layer_grads.items():
            grads[f"{layer}.{key}"] = g
    return loss, grads


def softmax_cross_entropy_reference(logits, label):
    """The one-sample log-sum-exp head the batched version replaced."""
    z = logits - np.max(logits)
    lse = np.log(np.sum(np.exp(z)))
    probs = np.exp(z - lse)
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    return lse - z[label], probs, dlogits


def assert_close(actual, expected):
    """Equal within 1e-12, relative for entries larger than 1."""
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


class TestConvForward:
    def test_all_zero_input(self):
        conv = ConvLayer(1, 1, 3, rng=np.random.default_rng(0))
        conv.gains[:] = 2.0
        y, _ = conv.forward(np.zeros((1, 5, 5)))
        assert np.array_equal(y, np.zeros((1, 3, 3)))

    def test_identity_kernel_gives_tanh_of_valid_region(self):
        conv = ConvLayer(1, 1, 2, stride=1, rng=np.random.default_rng(0))
        conv.kernels[:] = 0.0
        conv.kernels[0, 0, 0, 0] = 1.0  # flip-origin
        conv.gains[:] = 1.0
        x = np.random.default_rng(1).uniform(-1, 1, (1, 5, 5))
        y, _ = conv.forward(x)
        assert np.allclose(y[0], np.tanh(x[0, 1:, 1:]), atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_summation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        conv = ConvLayer(1, 1, 2, stride=1, rng=rng)
        x = rng.uniform(-1, 1, (1, 5, 5))
        y, _ = conv.forward(x)
        assert y.shape == (1, 4, 4)
        expected = conv_reference(x, conv.kernels, conv.gains, 1)
        assert np.allclose(y, expected, atol=1e-12)

    def test_100_random_cases_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            in_ch = int(rng.integers(1, 3))
            out_ch = int(rng.integers(1, 3))
            r = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            h = int(rng.integers(r, r + 5))
            w = int(rng.integers(r, r + 5))
            conv = ConvLayer(in_ch, out_ch, r, stride, rng=rng)
            conv.gains[:] = rng.uniform(0.5, 2.0, out_ch)
            x = rng.uniform(-1, 1, (in_ch, h, w))
            y, _ = conv.forward(x)
            expected = conv_reference(x, conv.kernels, conv.gains, stride)
            assert np.allclose(y, expected, atol=1e-12)

    def test_kernel_too_large_rejected(self):
        conv = ConvLayer(1, 1, 6, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            conv.forward(np.zeros((1, 5, 5)))

    def test_wrong_channel_count_rejected(self):
        conv = ConvLayer(2, 1, 3, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            conv.forward(np.zeros((1, 5, 5)))

    def test_flip_kernel_is_involution_and_relates_correlation(self):
        rng = np.random.default_rng(3)
        k = rng.uniform(-1, 1, (1, 1, 3, 3))
        assert np.array_equal(k[..., ::-1, ::-1][..., ::-1, ::-1], k)
        # conv with k == cross-correlation with flipped k, checked via oracle
        conv = ConvLayer(1, 1, 3, stride=1, rng=rng)
        conv.kernels = k
        conv.gains[:] = 1.0
        x = rng.uniform(-1, 1, (1, 5, 5))
        y, _ = conv.forward(x)
        kf = k[0, 0, ::-1, ::-1]
        corr = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                corr[a, b] = np.sum(x[0, a:a + 3, b:b + 3] * kf)
        assert np.allclose(y[0], np.tanh(corr), atol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(h=st.integers(1, 30), w=st.integers(1, 30),
           r=st.integers(1, 10), stride=st.integers(1, 5))
    def test_output_shape_formula(self, h, w, r, stride):
        conv = ConvLayer(1, 1, r, stride, rng=np.random.default_rng(0))
        if h < r or w < r:
            with pytest.raises(DimensionError):
                conv.forward(np.zeros((1, h, w)))
            return
        y, _ = conv.forward(np.zeros((1, h, w)))
        assert y.shape == (1, (h - r) // stride + 1, (w - r) // stride + 1)


class TestDenseForward:
    def test_zero_layer_sigmoid_gives_half(self):
        layer = DenseLayer(3, 2, "sigmoid", rng=np.random.default_rng(0))
        layer.weights[:] = 0.0
        y, _ = layer.forward(np.array([[1.0, -2.0, 3.0]]))
        assert np.allclose(y, [[0.5, 0.5]])

    def test_identity_weights_pass_through(self):
        layer = DenseLayer(3, 3, "identity", rng=np.random.default_rng(0))
        layer.weights = np.eye(3)
        x = np.array([[0.3, -1.2, 2.5]])
        y, _ = layer.forward(x)
        assert np.allclose(y, x)

    def test_matches_matvec_oracle(self):
        rng = np.random.default_rng(7)
        layer = DenseLayer(3, 2, "tanh", rng=rng)
        x = rng.uniform(-1, 1, 3)
        y, _ = layer.forward(x[None])
        expected = [math.tanh(sum(layer.weights[r, c] * x[c] for c in range(3))
                              + layer.biases[r]) for r in range(2)]
        assert np.allclose(y[0], expected, atol=1e-14)

    def test_length_mismatch_rejected(self):
        layer = DenseLayer(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            layer.forward(np.zeros(4))

    def test_activation_ranges(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-5, 5, (1, 4))
        sig, _ = DenseLayer(4, 6, "sigmoid", rng=rng).forward(x)
        tan, _ = DenseLayer(4, 6, "tanh", rng=rng).forward(x)
        assert np.all((sig > 0) & (sig < 1))
        assert np.all((tan > -1) & (tan < 1))


def lstm_step_reference(cell, x, h_prev, c_prev):
    """Scalar-by-scalar transcription of the six gate equations, using the
    per-gate weight views."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def dot(row, vec):
        return sum(float(a) * float(b) for a, b in zip(row, vec))

    h_out, c_out = [], []
    for r in range(cell.hidden_size):
        a_i = dot(cell.w_ii[r], x) + cell.b_ii[r] + dot(cell.w_hi[r], h_prev) + cell.b_hi[r]
        a_f = dot(cell.w_if[r], x) + cell.b_if[r] + dot(cell.w_hf[r], h_prev) + cell.b_hf[r]
        a_g = dot(cell.w_ig[r], x) + cell.b_ig[r] + dot(cell.w_hc[r], h_prev) + cell.b_hg[r]
        a_o = dot(cell.w_io[r], x) + cell.b_io[r] + dot(cell.w_ho[r], h_prev) + cell.b_ho[r]
        i, f, g, o = sig(a_i), sig(a_f), math.tanh(a_g), sig(a_o)
        c_t = f * c_prev[r] + i * g
        h_out.append(o * math.tanh(c_t))
        c_out.append(c_t)
    return np.array(h_out), np.array(c_out)


class TestLSTMStep:
    def _zero_cell(self, input_size=3, hidden=4):
        cell = LSTMCell(input_size, hidden, rng=np.random.default_rng(0))
        cell.w_x[:] = 0.0
        cell.w_h[:] = 0.0
        return cell

    def test_all_zero_cell_zero_state(self):
        cell = self._zero_cell()
        h, c = cell.step(np.ones(3), np.zeros(4), np.zeros(4))
        assert np.allclose(h, 0.0) and np.allclose(c, 0.0)

    def test_all_zero_cell_forced_state(self):
        cell = self._zero_cell()
        c_prev = np.array([0.5, -1.0, 2.0, 0.0])
        h, c = cell.step(np.ones(3), np.zeros(4), c_prev)
        assert np.allclose(c, 0.5 * c_prev)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_equation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(3, 4, rng=rng)
        x = rng.uniform(-1, 1, 3)
        h_prev = rng.uniform(-1, 1, 4)
        c_prev = rng.uniform(-2, 2, 4)
        h, c = cell.step(x, h_prev, c_prev)
        h_ref, c_ref = lstm_step_reference(cell, x, h_prev, c_prev)
        assert np.allclose(h, h_ref, atol=1e-12)
        assert np.allclose(c, c_ref, atol=1e-12)

    def test_100_random_cases_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            inp = int(rng.integers(1, 5))
            hid = int(rng.integers(1, 5))
            cell = LSTMCell(inp, hid, rng=rng)
            cell.b_x[:] = rng.uniform(-0.5, 0.5, 4 * hid)
            cell.b_h[:] = rng.uniform(-0.5, 0.5, 4 * hid)
            x = rng.uniform(-2, 2, inp)
            h_prev = rng.uniform(-1, 1, hid)
            c_prev = rng.uniform(-2, 2, hid)
            h, c = cell.step(x, h_prev, c_prev)
            h_ref, c_ref = lstm_step_reference(cell, x, h_prev, c_prev)
            assert np.allclose(h, h_ref, atol=1e-12)
            assert np.allclose(c, c_ref, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            cell.step(np.zeros(2), np.zeros(4), np.zeros(4))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000))
    def test_gates_bounded_and_cell_growth_limited(self, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(3, 4, rng=rng)
        x = rng.uniform(-3, 3, 3)
        h_prev = rng.uniform(-1, 1, 4)
        c_prev = rng.uniform(-3, 3, 4)
        h_ref, c_ref, cache = lstm_step_full_reference(cell, x, h_prev, c_prev)
        _, _, _, i_ref, f_ref, g_ref, o_ref, _ = cache
        # the production gate routine, on a batch of one, against the reference
        i, f, g, o, c, tc = cell._gates(x[None], h_prev[None], c_prev[None],
                                        cell.b_x + cell.b_h, np.empty((1, 16)))
        for got, want in ((i, i_ref), (f, f_ref), (g, g_ref), (o, o_ref),
                          (c, c_ref), (o * tc, h_ref)):
            assert np.max(np.abs(got[0] - want)) <= 1e-12
        for gate in (i, f, o):
            assert np.all((gate > 0) & (gate < 1))
        assert np.all(np.abs(c) <= np.abs(c_prev) + 1.0 + 1e-12)

    def test_gate_views_are_live(self):
        cell = LSTMCell(2, 3, rng=np.random.default_rng(0))
        cell.w_ii[0, 0] = 123.0
        assert cell.w_x[0, 0] == 123.0
        assert cell.w_ii.shape == (3, 2)
        assert cell.w_hc.shape == (3, 3)
        assert cell.b_hg.shape == (3,)


class _DenseNet(Network):
    """Minimal network: one dense layer straight to logits."""

    def __init__(self, in_size, n_classes, activation="identity", seed=0):
        self.layer = DenseLayer(in_size, n_classes, activation,
                                rng=np.random.default_rng(seed))

    def forward_logits(self, x):
        return self.layer.forward(np.asarray(x, dtype=np.float64))

    def backward_from_logits(self, dlogits, cache):
        _, grads = self.layer.backward(dlogits, cache)
        return {"weights": grads["weights"], "biases": grads["biases"]}

    def parameters(self):
        return {"weights": self.layer.weights, "biases": self.layer.biases}


class TestForwardLoss:
    def test_zero_logits_two_classes(self):
        net = _DenseNet(2, 2)
        net.layer.weights[:] = 0.0
        loss, probs = net.loss_and_probs(np.array([1.0, 2.0]), 0)
        assert np.allclose(probs, [0.5, 0.5])
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)

    def test_saturated_logits_loss_near_zero(self):
        loss, probs, _ = softmax_cross_entropy(np.array([[40.0, -40.0]]),
                                               np.array([0]))
        assert loss[0] < 1e-12
        assert probs[0, 0] > 1.0 - 1e-12

    def test_matches_log_sum_exp_oracle(self):
        rng = np.random.default_rng(5)
        net = _DenseNet(3, 4, seed=5)
        x = rng.uniform(-1, 1, 3)
        label = 2
        loss, probs = net.loss_and_probs(x, label)
        logits = net.layer.weights @ x + net.layer.biases
        lse = math.log(sum(math.exp(v) for v in logits))
        assert math.isclose(loss, lse - logits[label], rel_tol=1e-12)
        assert math.isclose(sum(probs), 1.0, abs_tol=1e-9)
        assert np.all((probs > 0) & (probs < 1))

    def test_bad_label_rejected(self):
        with pytest.raises(DimensionError):
            softmax_cross_entropy(np.zeros(3), 3)


class TestBackprop:
    def test_single_linear_weight_closed_form(self):
        # squared loss on z = w*x: dL/dw = x (w x - t), exact
        layer = DenseLayer(1, 1, "identity", rng=np.random.default_rng(0))
        layer.weights[:] = 0.7
        layer.biases[:] = 0.0
        x, t = np.array([[1.3]]), 0.4
        z, cache = layer.forward(x)
        dy = z - t
        _, grads = layer.backward(dy, cache)
        assert math.isclose(grads["weights"][0, 0],
                            1.3 * (0.7 * 1.3 - 0.4), rel_tol=1e-15)

    def test_zero_input_batch_zero_kernel_grads(self):
        conv = ConvLayer(1, 2, 3, rng=np.random.default_rng(0))
        y, cache = conv.forward(np.zeros((1, 1, 6, 6)))
        grads = conv.backward(np.ones_like(y), cache)
        assert np.array_equal(grads["kernels"], np.zeros_like(conv.kernels))

    def test_batch_gradient_is_mean_of_samples(self):
        net = _DenseNet(2, 3, seed=1)
        batch = [(np.array([0.1, 0.9]), 0), (np.array([-0.4, 0.2]), 2)]
        _, grads = net.batch_loss_and_grads(batch)
        g0 = net.batch_loss_and_grads(batch[:1])[1]
        g1 = net.batch_loss_and_grads(batch[1:])[1]
        assert np.allclose(grads["weights"],
                           (g0["weights"] + g1["weights"]) / 2)

    def test_empty_batch_rejected(self):
        with pytest.raises(DimensionError):
            _DenseNet(2, 2).batch_loss_and_grads([])


class TestBatchEquivalence:
    """Row b of a minibatch equals the single-sample result, and both equal
    the per-sample code the batched layers replaced."""

    @settings(deadline=None, max_examples=60)
    @given(in_ch=st.integers(1, 3), out_ch=st.integers(1, 3),
           r=st.integers(1, 5), stride=st.integers(1, 3),
           extra_h=st.integers(0, 6), extra_w=st.integers(0, 6),
           batch=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_conv(self, in_ch, out_ch, r, stride, extra_h, extra_w, batch,
                  seed):
        rng = np.random.default_rng(seed)
        conv = ConvLayer(in_ch, out_ch, r, stride, rng=rng)
        conv.gains[:] = rng.uniform(0.5, 2.0, out_ch)
        x = rng.uniform(-1, 1, (batch, in_ch, r + extra_h, r + extra_w))
        y, cache = conv.forward(x)
        dy = rng.uniform(-1, 1, y.shape)
        grads = conv.backward(dy, cache)
        dk_sum = np.zeros_like(conv.kernels)
        dg_sum = np.zeros_like(conv.gains)
        for b in range(batch):
            y1, cache1 = conv.forward(x[b][None])
            grads1 = conv.backward(dy[b][None], cache1)
            y_ref, t_ref = conv_tensordot_forward(
                x[b], conv.kernels, conv.gains, stride)
            dk_ref, dg_ref = conv_tensordot_backward(
                x[b], t_ref, dy[b], conv.kernels, conv.gains, stride)
            for got in (y[b], y1[0]):
                assert_close(got, y_ref)
            assert_close(grads1["kernels"], dk_ref)
            assert_close(grads1["gains"], dg_ref)
            dk_sum += dk_ref
            dg_sum += dg_ref
        assert_close(grads["kernels"], dk_sum)
        assert_close(grads["gains"], dg_sum)

    @settings(deadline=None, max_examples=60)
    @given(in_size=st.integers(1, 6), out_size=st.integers(1, 6),
           activation=st.sampled_from(sorted(ACTIVATIONS)),
           batch=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_dense(self, in_size, out_size, activation, batch, seed):
        rng = np.random.default_rng(seed)
        layer = DenseLayer(in_size, out_size, activation, rng=rng)
        layer.biases[:] = rng.uniform(-0.5, 0.5, out_size)
        act, deriv = ACTIVATIONS[activation]
        x = rng.uniform(-2, 2, (batch, in_size))
        y, cache = layer.forward(x)
        dy = rng.uniform(-1, 1, y.shape)
        dx, grads = layer.backward(dy, cache)
        dw_sum = np.zeros_like(layer.weights)
        db_sum = np.zeros_like(layer.biases)
        for b in range(batch):
            y1, cache1 = layer.forward(x[b][None])
            dx1, grads1 = layer.backward(dy[b][None], cache1)
            # the matrix-vector code the batched layer replaced
            y_ref = act(layer.weights @ x[b] + layer.biases)
            da = dy[b] * deriv(y_ref)
            for got in (y[b], y1[0]):
                assert_close(got, y_ref)
            for got in (dx[b], dx1[0]):
                assert_close(got, layer.weights.T @ da)
            assert_close(grads1["weights"], np.outer(da, x[b]))
            assert_close(grads1["biases"], da)
            dw_sum += np.outer(da, x[b])
            db_sum += da
        assert_close(grads["weights"], dw_sum)
        assert_close(grads["biases"], db_sum)

    @settings(deadline=None, max_examples=60)
    @given(batch=st.integers(1, 8), k=st.integers(2, 6),
           scale=st.sampled_from([0.1, 5.0, 100.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_softmax_cross_entropy(self, batch, k, scale, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0.0, scale, (batch, k))
        labels = rng.integers(0, k, batch)
        loss, probs, dlogits = softmax_cross_entropy(logits, labels)
        assert loss.shape == (batch,)
        for b in range(batch):
            single = softmax_cross_entropy(logits[b][None], labels[b][None])
            reference = softmax_cross_entropy_reference(logits[b], labels[b])
            for got, ref in zip((loss[b], probs[b], dlogits[b]), reference):
                assert_close(got, ref)
            for got, ref in zip(single, reference):
                assert_close(got[0], ref)

    @settings(deadline=None, max_examples=40)
    @given(channels=st.integers(1, 2), filters=st.integers(1, 3),
           kernel=st.integers(1, 5), stride=st.integers(1, 3),
           extra_h=st.integers(0, 5), extra_w=st.integers(0, 5),
           batch=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_image_cnn_batch_is_mean_of_samples(self, channels, filters, kernel,
                                                stride, extra_h, extra_w,
                                                batch, seed):
        from cogrl.representation import ImageArchSpec, build_image_cnn

        rng = np.random.default_rng(seed)
        spec = ImageArchSpec(
            in_shape=(channels, kernel + extra_h, kernel + extra_w),
            n_classes=3, filters=filters, kernel=kernel, stride=stride,
            rep_size=4)
        net = build_image_cnn(spec, seed=int(rng.integers(1000)))
        samples = [(rng.uniform(0, 1, spec.in_shape), int(rng.integers(3)))
                   for _ in range(batch)]
        loss, grads = net.batch_loss_and_grads(samples)
        # the per-sample loop Network.batch_loss_and_grads ran before
        mean_loss = 0.0
        mean_grads = {name: np.zeros_like(p)
                      for name, p in net.parameters().items()}
        for image, label in samples:
            logits, cache = net.forward_logits(image[None])
            sample_loss, _, dlogits = softmax_cross_entropy(
                logits, np.array([label]))
            for name, g in net.backward_from_logits(dlogits, cache).items():
                mean_grads[name] += g / batch
            mean_loss += sample_loss[0] / batch
        assert_close(loss, mean_loss)
        assert set(grads) == set(mean_grads)
        for name in grads:
            assert_close(grads[name], mean_grads[name])

    @settings(deadline=None, max_examples=60)
    @given(lengths=st.lists(st.integers(0, 12), min_size=1, max_size=8),
           input_size=st.integers(1, 5), hidden=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @example(lengths=[0, 0, 0], input_size=2, hidden=3, seed=0)
    @example(lengths=[0, 7, 12, 1, 12], input_size=3, hidden=2, seed=1)
    def test_lstm(self, lengths, input_size, hidden, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(input_size, hidden, rng=rng)
        cell.b_x[:] = rng.uniform(-0.5, 0.5, 4 * hidden)
        cell.b_h[:] = rng.uniform(-0.5, 0.5, 4 * hidden)
        seqs = [rng.uniform(-2, 2, (n, input_size)) for n in lengths]
        steps, batch = max(lengths), len(lengths)
        xs = np.zeros((steps, batch, input_size))
        mask = np.zeros((steps, batch), dtype=bool)
        for b, seq in enumerate(seqs):
            xs[steps - len(seq):, b] = seq
            mask[steps - len(seq):, b] = True
        h, c, caches = cell.run(xs, mask)
        assert len(caches) == steps
        dh = rng.uniform(-1, 1, (batch, hidden))
        dxs, grads = cell.backward_through_time(caches, dh)
        assert dxs.shape == xs.shape
        assert np.array_equal(dxs[~mask], np.zeros((np.sum(~mask), input_size)))
        grad_sum = {name: np.zeros_like(g) for name, g in grads.items()}
        for b, seq in enumerate(seqs):
            h_ref, c_ref, caches_ref = lstm_run_reference(cell, seq)
            dxs_ref, grads_ref = lstm_bptt_reference(cell, caches_ref, dh[b])
            assert_close(h[b], h_ref)
            assert_close(c[b], c_ref)
            assert_close(dxs[steps - len(seq):, b], dxs_ref)
            for name, g in grads_ref.items():
                grad_sum[name] += g
        for name, g in grads.items():
            assert_close(g, grad_sum[name])

    @settings(deadline=None, max_examples=40)
    @given(lengths=st.one_of(
               st.lists(st.integers(0, 12), min_size=1, max_size=40),
               st.builds(lambda n, b: [n] * b, st.integers(0, 12),
                         st.integers(1, 40))),
           input_size=st.integers(1, 4), hidden=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @example(lengths=[3, 0, 5, 5, 1, 0, 3, 5], input_size=2, hidden=3, seed=0)
    @example(lengths=[7] * 40, input_size=1, hidden=2, seed=1)
    @example(lengths=[0] * 39 + [1], input_size=3, hidden=1, seed=2)
    @example(lengths=list(range(11, -1, -1)) + list(range(12)),
             input_size=2, hidden=2, seed=3)
    def test_lstm_live_prefix(self, lengths, input_size, hidden, seed):
        """Unsorted lengths with ties and empty rows: the run computes one
        cell per real step and matches the per-sequence oracle row by row."""
        rng = np.random.default_rng(seed)
        cell = LSTMCell(input_size, hidden, rng=rng)
        cell.b_x[:] = rng.uniform(-0.5, 0.5, 4 * hidden)
        cell.b_h[:] = rng.uniform(-0.5, 0.5, 4 * hidden)
        steps, batch = max(lengths), len(lengths)
        xs = rng.uniform(-2, 2, (steps, batch, input_size))
        mask = np.arange(steps)[:, None] >= steps - np.array(lengths)
        h, c, caches = cell.run(xs, mask)
        assert sum(len(x_t) for x_t, *_ in caches) == sum(lengths)
        dh = rng.uniform(-1, 1, (batch, hidden))
        dxs, grads = cell.backward_through_time(caches, dh)
        assert np.array_equal(dxs[~mask], np.zeros((np.sum(~mask), input_size)))
        grad_sum = {name: np.zeros_like(g) for name, g in grads.items()}
        for b, n in enumerate(lengths):
            h_ref, c_ref, caches_ref = lstm_run_reference(
                cell, xs[steps - n:, b])
            dxs_ref, grads_ref = lstm_bptt_reference(cell, caches_ref, dh[b])
            assert_close(h[b], h_ref)
            assert_close(c[b], c_ref)
            assert_close(dxs[steps - n:, b], dxs_ref)
            for name, g in grads_ref.items():
                grad_sum[name] += g
        for name, g in grads.items():
            assert_close(g, grad_sum[name])

    @pytest.mark.parametrize("column", [[True, False, True],
                                        [True, True, False],
                                        [False, True, False]])
    def test_lstm_mask_must_be_left_padded(self, column):
        cell = LSTMCell(2, 3, rng=np.random.default_rng(0))
        mask = np.array([[True, column[0]], [True, column[1]],
                         [True, column[2]]])
        with pytest.raises(DimensionError, match="left padding"):
            cell.run(np.zeros((3, 2, 2)), mask)

    @settings(deadline=None, max_examples=30)
    @given(sides=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                          min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(sides=[(0, 3), (0, 5)], seed=0)
    @example(sides=[(4, 0), (9, 0), (1, 0)], seed=1)
    @example(sides=[(0, 12), (12, 0), (3, 7), (0, 0)], seed=2)
    def test_cloze_lstm_batch_is_mean_of_samples(self, sides, seed):
        from cogrl.problems import ClozeContent
        from cogrl.representation import CharVocab, ClozeArchSpec, build_cloze_lstm

        rng = np.random.default_rng(seed)
        chars = "abcdef z"
        net = build_cloze_lstm(
            ClozeArchSpec(n_classes=3, embedding_dim=3, lstm_hidden=4,
                          combine_size=8, rep_size=5),
            CharVocab("abcdef "), seed=int(rng.integers(1000)))
        samples = []
        for n_pre, n_post in sides:
            prefix = "".join(rng.choice(list(chars), n_pre))
            suffix = "".join(rng.choice(list(chars), n_post))
            samples.append((ClozeContent(prefix + "___" + suffix, prefix, suffix),
                            int(rng.integers(3))))
        loss, grads = net.batch_loss_and_grads(samples)
        mean_loss = 0.0
        mean_grads = {name: np.zeros_like(p)
                      for name, p in net.parameters().items()}
        for content, label in samples:
            ref_loss, ref_grads = cloze_sample_reference(net, content, label)
            one_loss, one_grads = net.batch_loss_and_grads([(content, label)])
            assert_close(one_loss, ref_loss)
            assert set(ref_grads) == set(mean_grads)
            for name, g in ref_grads.items():
                assert_close(one_grads[name], g)
                mean_grads[name] += g / len(samples)
            mean_loss += ref_loss / len(samples)
        assert_close(loss, mean_loss)
        assert set(grads) == set(mean_grads)
        for name in grads:
            assert_close(grads[name], mean_grads[name])

    def test_cloze_lstm_shortest_first_minibatch_keeps_input_order(self):
        from cogrl.problems import split_blank
        from cogrl.representation import CharVocab, ClozeArchSpec, build_cloze_lstm

        net = build_cloze_lstm(
            ClozeArchSpec(n_classes=3, embedding_dim=3, lstm_hidden=4,
                          combine_size=8, rep_size=5), CharVocab("abc "), seed=4)
        # prefixes shortest first, suffixes longest first
        contents = [split_blank(t) for t in
                    ["___ abcabc", "a ___ cab", "ab ___ c", "abc ab ___",
                     "abc abc ___"]]
        logits, _ = net.forward_logits(net.collate(contents))
        assert logits.shape == (5, 3)
        for row, content in zip(logits, contents):
            assert_close(row, net.forward_logits(net.collate([content]))[0][0])

    def test_cloze_lstm_readout_matches_single_samples(self):
        from cogrl.problems import ProblemInstance, split_blank
        from cogrl.representation import (
            CharVocab,
            ClozeArchSpec,
            build_cloze_lstm,
            extract_representations,
            training_accuracy,
        )

        net = build_cloze_lstm(
            ClozeArchSpec(n_classes=2, embedding_dim=3, lstm_hidden=4,
                          combine_size=8, rep_size=5), CharVocab("abc "), seed=3)
        texts = ["___", "a ___", "___ cab", "abc ab ___ c", "cc ___ a b c"] * 8
        problems = [ProblemInstance(f"q{i}", split_blank(t), i % 2)
                    for i, t in enumerate(texts)]
        reps = extract_representations(net, problems)
        assert reps.values.shape == (40, 5)
        for row, p in zip(reps.values, problems):
            assert_close(row, net.representation(net.collate([p.content]))[0])
        expected = sum(
            np.argmax(net.forward_logits(net.collate([p.content]))[0][0])
            == p.answer for p in problems)
        assert training_accuracy(net, problems) == expected / len(problems)

    def test_image_cnn_ragged_minibatch_rejected(self):
        from cogrl.representation import ImageArchSpec, build_image_cnn

        net = build_image_cnn(ImageArchSpec(in_shape=(1, 6, 6), n_classes=2,
                                            filters=2, kernel=3, stride=1,
                                            rep_size=4))
        with pytest.raises(DimensionError):
            net.batch_loss_and_grads([(np.zeros((1, 6, 6)), 0),
                                      (np.zeros((1, 6, 7)), 1)])

    def test_softmax_cross_entropy_label_count_must_match(self):
        with pytest.raises(DimensionError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))


class TestGradCheck:
    def test_linear_net_tiny_error(self):
        net = _DenseNet(3, 2, seed=3)
        err = grad_check(net, (np.array([0.2, -0.5, 1.0]), 1), 1e-5)
        assert err < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_random_small_architectures_below_tolerance(self, seed):
        from cogrl.problems import split_blank
        from cogrl.representation import (
            CharVocab,
            ClozeArchSpec,
            ImageArchSpec,
            build_cloze_lstm,
            build_image_cnn,
        )

        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            kernel = int(rng.integers(2, 4))
            spec = ImageArchSpec(
                in_shape=(int(rng.integers(1, 3)), 8, 9), n_classes=3,
                filters=int(rng.integers(1, 4)), kernel=kernel,
                stride=int(rng.integers(1, 3)),
                rep_size=int(rng.integers(3, 8)))
            net = build_image_cnn(spec, seed=seed)
            sample = (rng.uniform(0, 1, spec.in_shape), 1)
        else:
            hidden = int(rng.integers(2, 6))
            spec = ClozeArchSpec(
                n_classes=3, embedding_dim=int(rng.integers(2, 5)),
                lstm_hidden=hidden, combine_size=2 * hidden,
                rep_size=int(rng.integers(3, 8)))
            net = build_cloze_lstm(spec, CharVocab("abcdef "), seed=seed)
            chars = "abcdef "
            text = "".join(chars[i] for i in rng.integers(0, 7, 8)) + "___" \
                + "".join(chars[i] for i in rng.integers(0, 7, 8))
            sample = (split_blank(text), 2)
        assert net.parameter_count() <= 5000
        assert grad_check(net, sample, 1e-5) < 1e-4

    def test_embedding_gradient_via_finite_differences(self):
        rng = np.random.default_rng(4)
        table = EmbeddingTable(5, 3, rng=rng)
        ids = np.array([1, 3, 1])
        dvecs = rng.uniform(-1, 1, (3, 3))
        grad = table.backward(ids, dvecs)
        # row 1 used twice, row 3 once, others untouched
        assert np.allclose(grad[1], dvecs[0] + dvecs[2])
        assert np.allclose(grad[3], dvecs[1])
        assert np.allclose(grad[0], 0.0)


class TestSGD:
    def test_zero_grads_leave_parameters(self):
        net = _DenseNet(2, 2, seed=0)
        before = {k: v.copy() for k, v in net.parameters().items()}
        zero = {k: np.zeros_like(v) for k, v in net.parameters().items()}
        sgd_update(net, zero, SGDConfig())
        for k, v in net.parameters().items():
            assert np.array_equal(v, before[k])

    def test_single_step_arithmetic(self):
        net = _DenseNet(1, 1, seed=0)
        net.layer.weights[:] = 1.0
        grads = {"weights": np.array([[0.5]]), "biases": np.zeros(1)}
        sgd_update(net, grads, SGDConfig(learning_rate=0.1))
        assert math.isclose(net.layer.weights[0, 0], 0.95, rel_tol=1e-15)

    def test_two_runs_same_seed_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(0)
            net = _DenseNet(4, 3, seed=9)
            cfg = SGDConfig(learning_rate=0.2, seed=1)
            for _ in range(20):
                batch = [(rng.uniform(-1, 1, 4), int(rng.integers(3)))
                         for _ in range(4)]
                _, grads = net.batch_loss_and_grads(batch)
                sgd_update(net, grads, cfg)
            return net.parameters()

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k])


@st.composite
def checkpoint_like(draw):
    """Bytes shaped like a checkpoint: the right header, then param records
    whose ndim, extents and value counts agree only some of the time."""
    lines = ["cogrl-checkpoint 1",
             "meta " + draw(st.sampled_from(
                 ["{}", "{}", '{"architecture": "t"}', "[]", "{"]))]
    for _ in range(draw(st.integers(0, 3))):
        extents = draw(st.lists(st.integers(-1, 2), max_size=3))
        ndim = len(extents) + draw(st.sampled_from([0, 0, 1, -1]))
        count = draw(st.sampled_from([abs(math.prod(extents)), 0, 1, 5]))
        values = draw(st.lists(
            st.sampled_from(["0", "1.5", "-2e3", "nan", "inf", "1e999"]),
            min_size=count, max_size=count))
        name = draw(st.sampled_from(["w", "b.x", ""]))
        lines.append(f"param {name} {ndim} {' '.join(map(str, extents))}")
        lines.append(" ".join(values))
    tail = draw(st.sampled_from(
        [b"end\n", b"end\n", b"", b"\xff\xfe", b"param 1"]))
    return ("\n".join(lines) + "\n").encode() + tail


def save_checkpoint_joined(path, meta, params):
    """The writer the streaming save_checkpoint replaced: one format() string
    per value, joined into the whole file before a single write."""
    lines = ["cogrl-checkpoint 1", "meta " + json.dumps(meta, sort_keys=True)]
    for name, arr in params.items():
        arr = np.asarray(arr, dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"param {name} {arr.ndim} {dims}".rstrip())
        lines.append(" ".join(format(float(v), ".17g") for v in arr.reshape(-1)))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@st.composite
def float_arrays(draw):
    """float64 arrays of any shape, some longer than one write chunk, whose
    values include -0.0, subnormals, infinities and NaN."""
    size = draw(st.sampled_from([0, 1, 5, CHUNK - 1, CHUNK, CHUNK + 1,
                                 2 * CHUNK + 3]))
    arr = draw(hnp.arrays(np.float64, size, elements=st.floats(width=64),
                          fill=st.sampled_from([0.0, -0.0, 5e-324, 1e308])))
    if size and size % 5 == 0:
        arr = arr.reshape(5, -1)
    return arr


class TestCheckpoint:
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays=st.lists(float_arrays(), min_size=1, max_size=3))
    def test_streaming_writer_matches_joined_writer(self, tmp_path, arrays):
        params = {f"p{k}": arr for k, arr in enumerate(arrays)}
        meta = {"architecture": "t", "sizes": [a.size for a in arrays]}
        save_checkpoint(tmp_path / "stream.ckpt", meta, params)
        save_checkpoint_joined(tmp_path / "joined.ckpt", meta, params)
        assert (tmp_path / "stream.ckpt").read_bytes() == \
            (tmp_path / "joined.ckpt").read_bytes()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        params = {
            "a.weights": rng.uniform(-1, 1, (3, 4)),
            "b.vector": rng.uniform(-1, 1, 7),
            "c.scalar": np.array(0.1 + 0.2),
        }
        meta = {"architecture": "test", "note": "round trip"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, meta, params)
        meta2, params2 = load_checkpoint(path)
        assert meta2 == meta
        for k, v in params.items():
            assert np.array_equal(params2[k], np.asarray(v))

    def test_repeated_saves_byte_identical(self, tmp_path):
        params = {"w": np.random.default_rng(0).uniform(-1, 1, (2, 2))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, {"architecture": "t"}, params)
        save_checkpoint(p2, {"architecture": "t"}, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("something else\n")
        with pytest.raises(InputError):
            load_checkpoint(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"architecture": "t"}, {"w": np.zeros((2, 2))})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop values + end
        with pytest.raises(InputError):
            load_checkpoint(path)

    def test_rejects_non_positive_extents(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text("cogrl-checkpoint 1\nmeta {}\nparam x 2 -1 -1\n0.5\n")
        with pytest.raises(InputError, match="extents"):
            load_checkpoint(path)

    # every example overwrites the same file, so sharing tmp_path is safe
    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(st.binary(max_size=200), checkpoint_like()))
    def test_arbitrary_bytes_parse_or_raise_input_error(self, tmp_path, blob):
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(blob)
        try:
            meta, params = load_checkpoint(path)
        except InputError:
            return
        assert isinstance(meta, dict)
        for arr in params.values():
            assert arr.dtype == np.float64 and min(arr.shape, default=1) >= 1
