"""Network layers with explicit forward/backward passes.

Everything is double-precision numpy and single-threaded; there is no
autograd. Each layer keeps its parameters as plain arrays, returns a cache
from ``forward`` and consumes it in ``backward``, which yields a dict of
parameter gradients and, for every layer but the convolution (always a
network's first layer), the gradient with respect to the layer input.

Preconditions: a layer checks none of its inputs. A network's ``collate``
built them, so each has the dtype and shape stated here, and every id lies
inside the embedding table.

Batch axis: ``ConvLayer`` and ``DenseLayer`` take a minibatch with a
leading batch axis, ``(B, C, H, W)`` and ``(B, in_size)``, and return
outputs (and, for the dense layer, input gradients) with the same leading
axis. Their parameter gradients are sums over the batch axis; callers that
want a mean scale the incoming gradient. Each convolution pass is one
matrix product over a patch matrix that unfolds the minibatch's input
windows (Chellapilla, Puri and Simard 2006), so the work is a BLAS product
whatever the kernel size.
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

from ..errors import DimensionError


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
        """Apply the layer to a (B, C, H, W) minibatch.

        The minibatch is one matrix product: the (out, C R R) kernels times
        the patch matrix of ``_patches``. The cache keeps the input and
        backward builds the matrix again, so at most one is alive (400 KB
        for 32 one-channel images, a 5 x 5 kernel and an 8 x 8 output);
        caching the matrix was no faster and raised the peak memory.
        """
        _, oh, ow = self.output_shape(x.shape[2], x.shape[3])
        z = self.kernels.reshape(self.out_channels, -1) @ self._patches(x)
        t = np.tanh(z, out=z).reshape(self.out_channels, x.shape[0], oh, ow)
        y = (self.gains[:, None, None, None] * t).transpose(1, 0, 2, 3)
        return y, (x, t)

    def backward(self, dy: np.ndarray, cache):
        """The kernel and gain gradients of a (B, out, oh, ow) output
        gradient, summed over the minibatch. The convolution is a network's
        first layer, so no input gradient is computed."""
        xb, t = cache
        dyc = np.asarray(dy, dtype=np.float64).transpose(1, 0, 2, 3)
        dgains = np.sum(dyc * t, axis=(1, 2, 3))
        # (dyc g)(1 - t^2) in one array: more temporaries raised peak memory
        dz = np.multiply(dyc, self.gains[:, None, None, None],
                         out=np.empty_like(t))
        dz *= 1.0 - t * t
        dz = dz.reshape(self.out_channels, -1)
        dk = dz @ self._patches(xb).T
        return {"kernels": dk.reshape(self.kernels.shape), "gains": dgains}

    def _patches(self, xb):
        """The (C R R, B oh ow) patch matrix of a (B, C, H, W) minibatch.
        Column (b, i, j) holds the C R x R windows under output position
        (i, j) of image b, flipped, so that a product with the kernels is a
        true convolution."""
        r, s = self.kernel_size, self.stride
        # windows[b, c, i, j, p, q] = x[b, c, s i + R-1-p, s j + R-1-q]
        windows = np.lib.stride_tricks.sliding_window_view(
            xb, (r, r), axis=(2, 3))[:, :, ::s, ::s, ::-1, ::-1]
        return windows.transpose(1, 4, 5, 0, 2, 3).reshape(
            self.in_channels * r * r, -1)


class DenseLayer:
    """Fully connected layer: activation(W x + b)."""

    def __init__(self, in_size: int, out_size: int, activation: str = "identity",
                 *, rng: np.random.Generator):
        limit = 1.0 / np.sqrt(in_size)
        self.activation = activation
        self.weights = rng.uniform(-limit, limit, size=(out_size, in_size))
        self.biases = np.zeros(out_size, dtype=np.float64)

    def forward(self, x: np.ndarray):
        """Apply the layer to a (B, in_size) minibatch."""
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
        self.vectors = rng.uniform(-0.5, 0.5, size=(vocab_size, dim))

    def forward(self, ids: np.ndarray) -> np.ndarray:
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
    stored stacked in the order i, f, g, o: gate k reads rows
    ``k*hidden:(k+1)*hidden`` of ``w_x``, ``w_h``, ``b_x`` and ``b_h``, so
    one step costs two matrix products. ``run`` computes the gates once,
    in ``_gates``, and keeps each step's activated gate block and cell
    state; ``backward_through_time`` reads them back, computing no gate a
    second time, and releases each step's cache once it has used it.
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator):
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

    def _gates(self, x_t, h_prev, c_prev, bias, buf, scratch):
        """Gates (i, f, g, o), new cell state and its tanh for the live rows
        of one step of a length-sorted minibatch.

        ``x_t`` holds the live rows' inputs. Only the first len(h_prev) of
        them carry state; the others start at this step from the zero
        state, so they get no recurrent and no forget-gate term. ``bias`` is
        b_x + b_h, and the gates are views into ``buf``, a (len(x_t),
        4 hidden) array that receives them. The recurrent product goes
        through ``scratch``, an array of at least len(h_prev) rows of the
        same width, so a run makes no per-step temporary for it.
        """
        m, hs = len(h_prev), self.hidden_size
        a = np.matmul(x_t, self.w_x.T, out=buf)
        a += bias
        a[:m] += np.matmul(h_prev, self.w_h.T, out=scratch[:m])
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
        each row's real steps. Precondition: sequences are padded on the
        left, so a row's real steps are its last ones, with no gap; the
        network's collate builds every mask that way, and the run does not
        check it.

        Only live cells are computed. The rows are stable-sorted by length,
        longest first, so the rows whose sequence has started by step t are
        a prefix of that order, and step t works on that prefix alone; a
        row starting at step t starts from the zero state.

        Returns the final hidden and cell states in the caller's row order,
        (B, hidden), zero for an empty row, and one cache per step for
        backward_through_time. A step's cache holds the live rows' input,
        their activated gates (one (live rows, 4 hidden) array in the i, f,
        g, o layout), their new cell state and their positions in the
        caller's order. A run of no steps yields the zero initial states
        and no caches.
        """
        batch = mask.shape[1]
        lengths = mask.sum(axis=0)
        order = np.argsort(-lengths, kind="stable")
        bias = self.b_x + self.b_h
        h = c = np.zeros((0, self.hidden_size))
        scratch = np.empty((batch, 4 * self.hidden_size))
        caches = []
        for x_t, n in zip(xs, mask.sum(axis=1)):
            rows = order[:n]
            x_live = x_t[rows]
            gates = np.empty((n, 4 * self.hidden_size))
            _, _, _, o, c, tc = self._gates(x_live, h, c, bias, gates,
                                            scratch)
            caches.append((x_live, gates, c, rows))
            h = o * tc
        h_out = np.zeros((batch, self.hidden_size))
        c_out = np.zeros_like(h_out)
        h_out[order[:len(h)]] = h
        c_out[order[:len(c)]] = c
        return h_out, c_out, caches

    def backward_through_time(self, caches, dh_last):
        """Backpropagate a gradient on the final hidden state.

        ``dh_last`` is (B, hidden). The gates are read from the caches
        ``run`` returned, not computed again: a step's previous state is
        the previous step's cell state and ``o * tanh(c)`` of its gates,
        the same bytes the forward pass made, and each ``tanh(c)`` is taken
        once, serving step t and then step t-1. Each step's cache entry is
        set to None once read, so the caches' memory is freed as the pass
        goes. Precondition: the caches are a run's, not yet consumed; a
        network runs one backward pass per forward pass. Like the
        run it works on the live rows only: going back from step t to t-1,
        the state gradients shrink to the rows already running at t-1.
        Returns (dxs, grads): dxs is shaped like the run's input, (T, B,
        input_size), in the caller's row order and zero at masked steps;
        grads holds the w_x, w_h, b_x, b_h gradients summed over the
        minibatch.
        """
        dh = np.asarray(dh_last, dtype=np.float64)
        hs = self.hidden_size
        dwx = np.zeros_like(self.w_x)
        dwh = np.zeros_like(self.w_h)
        dbx = np.zeros_like(self.b_x)
        dxs = np.zeros((len(caches), dh.shape[0], self.input_size))
        da_buf = np.empty((dh.shape[0], 4 * hs))
        if caches:
            dh = dh[caches[-1][3]]
            tc = np.tanh(caches[-1][2])
        dc = np.zeros_like(dh)
        for t in range(len(caches) - 1, -1, -1):
            x_t, gates, _, rows = caches[t]
            caches[t] = None
            if t:
                _, gates_prev, c_prev, _ = caches[t - 1]
                tc_prev = np.tanh(c_prev)
                h_prev = gates_prev[:, 3 * hs:] * tc_prev
            else:
                c_prev = h_prev = tc_prev = np.zeros((0, hs))
            m = len(h_prev)
            i, f, g, o = (gates[:, k * hs:(k + 1) * hs] for k in range(4))
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
            tc = tc_prev
        grads = {"w_x": dwx, "w_h": dwh, "b_x": dbx, "b_h": dbx.copy()}
        return dxs, grads
