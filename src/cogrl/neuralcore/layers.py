"""Network layers with explicit forward/backward passes.

Everything is double-precision numpy and single-threaded; there is no
autograd. Each layer keeps its parameters as plain arrays, returns a cache
from ``forward`` and consumes it in ``backward``, which yields a dict of
parameter gradients and, for every layer but the convolution (always a
network's first layer), the gradient with respect to the layer input.

Batch axis: ``ConvLayer`` and ``DenseLayer`` take a minibatch with a
leading batch axis, ``(B, C, H, W)`` and ``(B, in_size)``, and return
outputs (and, for the dense layer, input gradients) with the same leading
axis. Their parameter gradients are sums over the batch axis; callers that
want a mean scale the incoming gradient. ``ConvLayer.forward`` also runs
one ``(C, H, W)`` image as a batch of one and returns its output without
the batch axis; its backward pass takes only the minibatch form.
``LSTMCell`` is time-major: it runs a (T, B, input_size) minibatch of
left-padded sequences under a (T, B) mask, computing only the cells of
real steps.
``EmbeddingTable`` looks up ids of any shape and scatters gradients for a
flat list of ids.

Every layer takes a required keyword-only ``rng``. Weight matrices are
initialized uniformly on (-1/sqrt(fan_in), +1/sqrt(fan_in)) from it;
biases start at zero, convolution gains at one, and embedding rows are
uniform on (-0.5, 0.5). The embedding scale matters: rows much smaller
than the recurrent weights leave gate activations nearly input-independent
and gradient descent cannot bootstrap out of the class-prior solution.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DimensionError


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, so exp never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# activation -> (function, derivative expressed in terms of the output)
ACTIVATIONS = {
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "sigmoid": (sigmoid, lambda y: y * (1.0 - y)),
    "identity": (lambda x: x, lambda y: np.ones_like(y)),
}


class ConvLayer:
    """2-D valid convolution with a per-output-channel tanh gain.

    Output map j is ``g_j * tanh(sum_i k_ij * x_i)`` where ``*`` is true
    convolution: kernel indices run backwards over the input, no padding.
    Positions are sampled at the stride, so an H x W input produces a
    floor((H-R)/stride)+1 by floor((W-R)/stride)+1 output. There is no
    additive bias.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, *, rng: np.random.Generator):
        if kernel_size < 1 or stride < 1 or in_channels < 1 or out_channels < 1:
            raise ConfigurationError(
                "conv layer needs positive channel counts, kernel size and stride")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        limit = 1.0 / np.sqrt(in_channels * kernel_size * kernel_size)
        self.kernels = rng.uniform(
            -limit, limit, size=(out_channels, in_channels, kernel_size, kernel_size))
        self.gains = np.ones(out_channels, dtype=np.float64)

    def output_shape(self, h: int, w: int) -> tuple[int, int, int]:
        r, s = self.kernel_size, self.stride
        if h < r or w < r:
            raise DimensionError(
                f"conv kernel {r}x{r} does not fit inside a {h}x{w} input")
        return self.out_channels, (h - r) // s + 1, (w - r) // s + 1

    def forward(self, x: np.ndarray):
        """Apply the layer to a (B, C, H, W) minibatch or one (C, H, W) input.

        The kernel loop runs over the R x R offsets once per call: each
        offset contracts the strided view of the whole minibatch with that
        offset's (out, in) kernel slice in one matrix product. Work is done
        channel-major, (C, B, H, W), so every product is a plain 2-D one and
        no patch matrix holding all offsets at once is built.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 3
        xb = x[None] if single else x
        if xb.ndim != 4 or xb.shape[1] != self.in_channels:
            raise DimensionError(
                f"conv layer expects ({self.in_channels}, H, W) input or a "
                f"(B, {self.in_channels}, H, W) minibatch, got {x.shape}")
        _, oh, ow = self.output_shape(xb.shape[2], xb.shape[3])
        xc = xb.transpose(1, 0, 2, 3)
        z = np.zeros((self.out_channels, xb.shape[0] * oh * ow))
        for p, q, rows, cols in self._offsets(oh, ow):
            # true convolution: output (a, b) reads x[s*a + (R-1-p), s*b + (R-1-q)].
            # np.dot, not @: with one input channel the inner size is 1, where
            # matmul took 2.5x as long for a 32-image minibatch
            z += np.dot(self.kernels[:, :, p, q],
                        xc[:, :, rows, cols].reshape(self.in_channels, -1))
        t = np.tanh(z).reshape(self.out_channels, xb.shape[0], oh, ow)
        y = (self.gains[:, None, None, None] * t).transpose(1, 0, 2, 3)
        return (y[0] if single else y), (xc, t)

    def backward(self, dy: np.ndarray, cache):
        """The kernel and gain gradients of a (B, out, oh, ow) output
        gradient, summed over the minibatch. The convolution is a network's
        first layer, so no input gradient is computed."""
        xc, t = cache
        dyc = np.asarray(dy, dtype=np.float64).transpose(1, 0, 2, 3)
        oh, ow = t.shape[2], t.shape[3]
        dgains = np.sum(dyc * t, axis=(1, 2, 3))
        dz = (dyc * self.gains[:, None, None, None] * (1.0 - t * t)).reshape(
            self.out_channels, -1)
        dk = np.zeros_like(self.kernels)
        for p, q, rows, cols in self._offsets(oh, ow):
            dk[:, :, p, q] = dz @ xc[:, :, rows, cols].reshape(
                self.in_channels, -1).T
        return {"kernels": dk, "gains": dgains}

    def _offsets(self, oh: int, ow: int):
        """(p, q, row slice, column slice) for every kernel offset: the input
        positions that kernel element (p, q) meets over an oh x ow output."""
        r, s = self.kernel_size, self.stride
        for p in range(r):
            for q in range(r):
                yield (p, q,
                       slice(r - 1 - p, r - 1 - p + s * (oh - 1) + 1, s),
                       slice(r - 1 - q, r - 1 - q + s * (ow - 1) + 1, s))


class DenseLayer:
    """Fully connected layer: activation(W x + b)."""

    def __init__(self, in_size: int, out_size: int, activation: str = "identity",
                 *, rng: np.random.Generator):
        if activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {activation!r}")
        if in_size < 1 or out_size < 1:
            raise ConfigurationError("dense layer sizes must be positive")
        limit = 1.0 / np.sqrt(in_size)
        self.in_size = in_size
        self.out_size = out_size
        self.activation = activation
        self.weights = rng.uniform(-limit, limit, size=(out_size, in_size))
        self.biases = np.zeros(out_size, dtype=np.float64)

    def forward(self, x: np.ndarray):
        """Apply the layer to a (B, in_size) minibatch."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_size:
            raise DimensionError(f"dense layer expects a (B, {self.in_size}) "
                                 f"minibatch, got {x.shape}")
        y = ACTIVATIONS[self.activation][0](x @ self.weights.T + self.biases)
        return y, (x, y)

    def backward(self, dy: np.ndarray, cache):
        """(B, in_size) input gradient, and the weight and bias gradients
        summed over the minibatch."""
        x, y = cache
        da = dy * ACTIVATIONS[self.activation][1](y)
        return da @ self.weights, {"weights": da.T @ x,
                                   "biases": da.sum(axis=0)}


class EmbeddingTable:
    """Token-id to vector lookup; row 0 is reserved for unknown tokens."""

    def __init__(self, vocab_size: int, dim: int, *, rng: np.random.Generator):
        if vocab_size < 1 or dim < 1:
            raise ConfigurationError("embedding table needs positive sizes")
        self.vocab_size = vocab_size
        self.dim = dim
        self.vectors = rng.uniform(-0.5, 0.5, size=(vocab_size, dim))

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise DimensionError("token id outside embedding table")
        return self.vectors[ids]

    def backward(self, ids: np.ndarray, dvecs: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(self.vectors)
        if len(ids):
            np.add.at(grad, np.asarray(ids, dtype=np.intp), dvecs)
        return grad


class LSTMCell:
    """One LSTM recurrence with separate input and hidden biases.

    Gates follow the standard formulation: input, forget and output gates
    through the logistic function, the cell candidate through tanh, then
    ``c_t = f*c_prev + i*g`` and ``h_t = o*tanh(c_t)``. The four gates are
    stored stacked (order i, f, g, o) so one step costs two matrix products;
    the per-gate matrices ``w_ii, w_if, w_ig, w_io`` / ``w_hi, w_hf, w_hc,
    w_ho`` and the eight biases are live views into the stacked arrays.
    ``_gates`` is the one implementation of the gate math: ``step``, ``run``
    and ``backward_through_time`` all go through it.
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator):
        if input_size < 1 or hidden_size < 1:
            raise ConfigurationError("LSTM sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        li = 1.0 / np.sqrt(input_size)
        lh = 1.0 / np.sqrt(hidden_size)
        self.w_x = rng.uniform(-li, li, size=(4 * hidden_size, input_size))
        self.w_h = rng.uniform(-lh, lh, size=(4 * hidden_size, hidden_size))
        self.b_x = np.zeros(4 * hidden_size, dtype=np.float64)
        self.b_h = np.zeros(4 * hidden_size, dtype=np.float64)
        # column factors turning one tanh over the stacked pre-activations
        # into the logistic on the i, f and o blocks (see _gates)
        self._half = np.repeat([0.5, 0.5, 1.0, 0.5], hidden_size)
        self._shift = np.repeat([0.5, 0.5, 0.0, 0.5], hidden_size)

    def _block(self, arr, gate):
        h = self.hidden_size
        return arr[gate * h:(gate + 1) * h]

    # per-gate views: input weights
    w_ii = property(lambda self: self._block(self.w_x, 0))
    w_if = property(lambda self: self._block(self.w_x, 1))
    w_ig = property(lambda self: self._block(self.w_x, 2))
    w_io = property(lambda self: self._block(self.w_x, 3))
    # per-gate views: hidden weights
    w_hi = property(lambda self: self._block(self.w_h, 0))
    w_hf = property(lambda self: self._block(self.w_h, 1))
    w_hc = property(lambda self: self._block(self.w_h, 2))
    w_ho = property(lambda self: self._block(self.w_h, 3))
    # per-gate views: biases
    b_ii = property(lambda self: self._block(self.b_x, 0))
    b_if = property(lambda self: self._block(self.b_x, 1))
    b_ig = property(lambda self: self._block(self.b_x, 2))
    b_io = property(lambda self: self._block(self.b_x, 3))
    b_hi = property(lambda self: self._block(self.b_h, 0))
    b_hf = property(lambda self: self._block(self.b_h, 1))
    b_hg = property(lambda self: self._block(self.b_h, 2))
    b_ho = property(lambda self: self._block(self.b_h, 3))

    def step(self, x_t, h_prev, c_prev):
        """Single recurrence step, through the gate routine ``run`` uses, on
        a batch of one; returns (h_t, c_t)."""
        x_t, h_prev, c_prev = (np.asarray(v, dtype=np.float64)
                               for v in (x_t, h_prev, c_prev))
        if x_t.shape != (self.input_size,) or h_prev.shape != (self.hidden_size,) \
                or c_prev.shape != (self.hidden_size,):
            raise DimensionError(
                f"LSTM step expects input {self.input_size} and state "
                f"{self.hidden_size}, got {x_t.shape}/{h_prev.shape}/{c_prev.shape}")
        _, _, _, o, c, tc = self._gates(
            x_t[None], h_prev[None], c_prev[None], self.b_x + self.b_h,
            np.empty((1, 4 * self.hidden_size)))
        return o[0] * tc[0], c[0]

    def _gates(self, x_t, h_prev, c_prev, bias, buf):
        """Gates (i, f, g, o), new cell state and its tanh for the live rows
        of one step of a length-sorted minibatch.

        ``x_t`` holds the live rows' inputs. Only the first len(h_prev) of
        them carry state; the others start at this step from the zero
        state, so they get no recurrent and no forget-gate term. ``bias`` is
        b_x + b_h, and the gates are views into ``buf``, a (B, 4 hidden)
        scratch buffer.
        """
        m, hs = len(h_prev), self.hidden_size
        a = np.matmul(x_t, self.w_x.T, out=buf[:len(x_t)])
        a += bias
        a[:m] += h_prev @ self.w_h.T
        # logistic(v) = 0.5 + 0.5 tanh(v/2) on the i, f and o blocks, tanh on
        # g: one in-place tanh over the buffer between two column scalings
        a *= self._half
        np.tanh(a, out=a)
        a *= self._half
        a += self._shift
        i, f, g, o = (a[:, k * hs:(k + 1) * hs] for k in range(4))
        c = i * g
        c[:m] += f[:m] * c_prev
        return i, f, g, o, c, np.tanh(c)

    def run(self, xs: np.ndarray, mask: np.ndarray):
        """Run a time-major minibatch from the zero initial state.

        ``xs`` is (T, B, input_size) and the boolean (T, B) ``mask`` marks
        each row's real steps. Sequences are padded on the left: a row's
        real steps are its last ones, with no gap, and a mask of any other
        shape raises DimensionError.

        Only live cells are computed. The rows are stable-sorted by length,
        longest first, so the rows whose sequence has started by step t are
        a prefix of that order, and step t works on that prefix alone; a
        row starting at step t starts from the zero state.

        Returns the final hidden and cell states in the caller's row order,
        (B, hidden), zero for an empty row, and one cache per step for
        backward_through_time. A cache holds the live rows' input, the
        states they started from (only the rows already running) and the
        live rows' positions in the caller's order; the gates are
        recomputed in the backward pass. A run of no steps yields the zero
        initial states and no caches.
        """
        xs = np.asarray(xs, dtype=np.float64)
        keep = np.asarray(mask, dtype=bool)
        if xs.ndim != 3 or xs.shape[2:] != (self.input_size,) \
                or keep.shape != xs.shape[:2]:
            raise DimensionError(f"LSTM expects (T, B, {self.input_size}) "
                                 f"input and a (T, B) mask, got {xs.shape}")
        steps, batch = keep.shape
        lengths = keep.sum(axis=0)
        if not np.array_equal(keep, np.arange(steps)[:, None] >= steps - lengths):
            raise DimensionError(
                "LSTM mask must mark each row's last steps, without a gap "
                "(left padding)")
        order = np.argsort(-lengths, kind="stable")
        bias = self.b_x + self.b_h
        buf = np.empty((batch, 4 * self.hidden_size))
        h = c = np.zeros((0, self.hidden_size))
        caches = []
        for x_t, n in zip(xs, keep.sum(axis=1)):
            rows = order[:n]
            x_live = x_t[rows]
            caches.append((x_live, h, c, rows))
            _, _, _, o, c, tc = self._gates(x_live, h, c, bias, buf)
            h = o * tc
        h_out = np.zeros((batch, self.hidden_size))
        c_out = np.zeros_like(h_out)
        h_out[order[:len(h)]] = h
        c_out[order[:len(c)]] = c
        return h_out, c_out, caches

    def backward_through_time(self, caches, dh_last):
        """Backpropagate a gradient on the final hidden state.

        ``dh_last`` is (B, hidden). Each step's gates are rebuilt from its
        cache, so the backward pass costs one more forward step per step but
        the run holds only the per-step states. Like the run it works on the
        live rows only: going back from step t to t-1, the state gradients
        shrink to the rows already running at t-1. Returns (dxs, grads):
        dxs is shaped like the run's input, (T, B, input_size), in the
        caller's row order and zero at masked steps; grads holds the w_x,
        w_h, b_x, b_h gradients summed over the minibatch.
        """
        dh = np.asarray(dh_last, dtype=np.float64)
        hs = self.hidden_size
        dwx = np.zeros_like(self.w_x)
        dwh = np.zeros_like(self.w_h)
        dbx = np.zeros_like(self.b_x)
        dxs = np.zeros((len(caches), dh.shape[0], self.input_size))
        bias = self.b_x + self.b_h
        buf = np.empty((dh.shape[0], 4 * hs))
        da_buf = np.empty_like(buf)
        if caches:
            dh = dh[caches[-1][3]]
        dc = np.zeros_like(dh)
        for t in range(len(caches) - 1, -1, -1):
            x_t, h_prev, c_prev, rows = caches[t]
            m = len(h_prev)
            i, f, g, o, _, tc = self._gates(x_t, h_prev, c_prev, bias, buf)
            dc += dh * o * (1.0 - tc * tc)
            da = da_buf[:len(x_t)]
            da[:, :hs] = dc * g * i * (1.0 - i)
            da[:m, hs:2 * hs] = dc[:m] * c_prev * f[:m] * (1.0 - f[:m])
            da[m:, hs:2 * hs] = 0.0
            da[:, 2 * hs:3 * hs] = dc * i * (1.0 - g * g)
            da[:, 3 * hs:] = dh * tc * o * (1.0 - o)
            dwx += da.T @ x_t
            dwh += da[:m].T @ h_prev
            dbx += da.sum(axis=0)
            dxs[t, rows] = da @ self.w_x
            dh = da[:m] @ self.w_h
            dc = dc[:m] * f[:m]
        grads = {"w_x": dwx, "w_h": dwh, "b_x": dbx, "b_h": dbx.copy()}
        return dxs, grads
