"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every differentiable kernel used by the model and losses is a function of
Tensor arguments. Only add, sub, mul and div also take a plain array or
number as an operand (a mask, guard or constant); such an operand gets no
gradient. While a Tape is active, each call records the op together
with a closure that maps the output gradient to input gradients;
backward(loss, wrt) replays the records in exact reverse order, releases each
intermediate gradient once its closure has consumed it, and returns the
gradients of the leaf tensors in wrt. Tensors hold no gradient. With no
active tape the same functions are plain numpy evaluation, which is what
inference and the finite-difference probes use.
"""

import numpy as np

_TAPES = []


class Tensor:
    """A float64 array."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of ops; backward() visits them in reverse.

    backward(loss, wrt) keeps its gradients in a dict local to the call, so
    a tape can be replayed any number of times. The replay drops each
    intermediate gradient as soon as its VJP has run. It returns one array
    per tensor of wrt, in order, and zeros where the loss does not reach a
    tensor. wrt holds leaves (parameters or inputs), not op outputs. The
    returned arrays may be shared or read-only views of the tape's own
    arrays, so callers must not write into them.
    Single-threaded by design; use one tape per worker.
    """

    def __init__(self):
        self.entries = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def backward(self, loss, wrt):
        if loss.value.ndim != 0:
            raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")
        grads = {id(loss): np.ones((), dtype=np.float64)}
        # a VJP may hand one array to two parents (add) or return a read-only
        # view (tsum, reshape, swapaxes), so gradients are never written to
        for out, parents, vjp in reversed(self.entries):
            # nothing after this VJP reads out's gradient, so popping it leaves
            # g_out as its last reference, freed once the VJP has run
            g_out = grads.pop(id(out), None)
            if g_out is None:
                continue
            for t, g in zip(parents, vjp(g_out)):
                if g is not None:
                    old = grads.get(id(t))
                    grads[id(t)] = g if old is None else old + g
        return [grads[id(t)] if id(t) in grads else np.zeros_like(t.value) for t in wrt]


def _record(out, parents, vjp):
    if _TAPES:
        _TAPES[-1].entries.append((out, parents, vjp))
    return out


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a, b, value, grad_a, grad_b):
    """value(a, b) elementwise; grad_a(g, av, bv) and grad_b(g, av, bv) are the
    operands' VJPs before summing back to their shapes. An operand passed as a
    plain array or number (a mask, guard or constant) gets no gradient."""
    da, db = isinstance(a, Tensor), isinstance(b, Tensor)
    a, b = a if da else Tensor(a), b if db else Tensor(b)
    av, bv = a.value, b.value
    out = Tensor(value(av, bv))
    return _record(out, (a, b), lambda g: (
        _unbroadcast(grad_a(g, av, bv), av.shape) if da else None,
        _unbroadcast(grad_b(g, av, bv), bv.shape) if db else None))


def add(a, b):
    return _binary(a, b, np.add, lambda g, av, bv: g, lambda g, av, bv: g)


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, av, bv: g, lambda g, av, bv: -g)


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def div(a, b):
    return _binary(a, b, np.true_divide, lambda g, av, bv: g / bv,
                   lambda g, av, bv: -g * av / (bv * bv))


def neg(a):
    out = Tensor(-a.value)
    return _record(out, (a,), lambda g: (-g,))


def matmul(a, b):
    """Matrix product, batched over leading dims (both operands ndim >= 2).

    A 2-D right operand under a higher-dim left one (a weight applied to a
    batch) runs as single GEMMs over the flattened leading dims, so its
    gradient is one (k, n) x (n, m) product instead of a batched one summed
    afterwards.
    """
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(f"matmul needs ndim >= 2 operands, got {av.shape} and {bv.shape}")
    if bv.ndim == 2 and av.ndim > 2:
        a2 = av.reshape(-1, av.shape[-1])
        out = Tensor((a2 @ bv).reshape(av.shape[:-1] + bv.shape[1:]))

        def vjp(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ bv.T).reshape(av.shape), a2.T @ g2

        return _record(out, (a, b), vjp)
    out = Tensor(av @ bv)

    def vjp(g):
        ga = _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape)
        gb = _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape)
        return ga, gb

    return _record(out, (a, b), vjp)


def tanh(a):
    out = Tensor(np.tanh(a.value))
    ov = out.value
    return _record(out, (a,), lambda g: (g * (1.0 - ov * ov),))


def sqrt(a):
    out = Tensor(np.sqrt(a.value))
    ov = out.value
    return _record(out, (a,), lambda g: (g / (2.0 * ov),))


def tsum(a, axis=None, keepdims=False):
    out = Tensor(a.value.sum(axis=axis, keepdims=keepdims))
    ash = a.value.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, ash),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, ash),)

    return _record(out, (a,), vjp)


def reshape(a, shape):
    out = Tensor(a.value.reshape(shape))
    ash = a.value.shape
    return _record(out, (a,), lambda g: (g.reshape(ash),))


def swapaxes(a, ax1, ax2):
    out = Tensor(a.value.swapaxes(ax1, ax2))
    return _record(out, (a,), lambda g: (g.swapaxes(ax1, ax2),))


def concat(tensors, axis=0):
    tensors = tuple(tensors)
    out = Tensor(np.concatenate([t.value for t in tensors], axis=axis))
    sizes = [t.value.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _record(out, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def _scatter_rows(rows, g, shape):
    """Zeros of `shape` plus each row of g added at first-axis index rows[j].

    One weighted bincount over flat (row, column) keys; it adds in input
    order, as np.add.at does, so the two agree bit for bit.
    """
    width = int(np.prod(shape[1:], dtype=np.int64))
    keys = (rows.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    flat = np.bincount(keys, weights=g.reshape(-1), minlength=shape[0] * width)
    return flat.reshape(shape)


def gather_rows(a, idx):
    """a[idx] for a non-negative integer index array; rows scatter-add on backward."""
    idx = np.asarray(idx)
    out = Tensor(a.value[idx])
    ash = a.value.shape
    return _record(out, (a,), lambda g: (_scatter_rows(idx, g, ash),))


def take_per_row(a, idx):
    """out[b] = a[b, idx[b]]; works for a of ndim >= 2."""
    idx = np.asarray(idx)
    ash = a.value.shape
    rows = np.arange(ash[0])
    out = Tensor(a.value[rows, idx])
    flat_shape = (ash[0] * ash[1],) + ash[2:]
    return _record(out, (a,), lambda g: (
        _scatter_rows(rows * ash[1] + idx, g, flat_shape).reshape(ash),))


def stop_grad(a):
    """Value passes through; gradient does not."""
    return Tensor(a.value.copy())


def softmax(a, axis=-1):
    """Stable softmax (max subtraction) along one axis."""
    if a.value.shape[axis] == 0:
        raise ValueError(f"softmax over an empty axis: shape {a.value.shape}, axis {axis}")
    return masked_softmax(a, True, axis=axis)


def masked_softmax(a, mask, axis=-1):
    """Softmax over positions where mask is true; fully masked rows come out all-zero."""
    mask = np.asarray(mask, dtype=bool)
    logits = np.where(mask, a.value, -np.inf)
    mx = logits.max(axis=axis, keepdims=True, initial=-np.inf)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.exp(logits - mx)
    s = e.sum(axis=axis, keepdims=True)
    ov = e / np.where(s == 0.0, 1.0, s)
    out = Tensor(ov)

    def vjp(g):
        return (ov * (g - (g * ov).sum(axis=axis, keepdims=True)),)

    return _record(out, (a,), vjp)


def logsumexp(a, axis=None, keepdims=False):
    return masked_logsumexp(a, True, axis=axis, keepdims=keepdims)


def _finite_exp(x, out):
    """exp(x - out), and 0 where that difference is not finite."""
    with np.errstate(invalid="ignore"):
        diff = x - out
    w = np.zeros_like(diff)
    fin = np.isfinite(diff)
    w[fin] = np.exp(diff[fin])
    return w


def masked_logsumexp(a, mask, axis=-1, keepdims=False):
    """log Σ exp over unmasked positions; fully masked rows come out -inf with zero gradient."""
    mask = np.asarray(mask, dtype=bool)
    if axis is None:
        axis = tuple(range(a.value.ndim))
    logits = np.where(mask, a.value, -np.inf)
    mx = logits.max(axis=axis, keepdims=True, initial=-np.inf)
    mx_safe = np.where(np.isfinite(mx), mx, 0.0)
    s = np.exp(logits - mx_safe).sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        ov_keep = mx_safe + np.log(s)
    ov_keep = np.where(np.isfinite(mx), ov_keep, -np.inf)
    out = Tensor(ov_keep if keepdims else np.squeeze(ov_keep, axis=axis))

    def vjp(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        return (gk * _finite_exp(logits, ov_keep),)

    return _record(out, (a,), vjp)


def softplus(a):
    """log(1 + exp(x)), overflow-safe."""
    out = Tensor(np.logaddexp(0.0, a.value))
    av = a.value

    def vjp(g):
        sig = np.empty_like(av)
        pos = av >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
        ex = np.exp(av[~pos])
        sig[~pos] = ex / (1.0 + ex)
        return (g * sig,)

    return _record(out, (a,), vjp)


def logaddexp(a, b):
    """Elementwise log(exp(a) + exp(b)); tolerates -inf in either argument."""
    out = Tensor(np.logaddexp(a.value, b.value))
    av, bv, ov = a.value, b.value, out.value

    def vjp(g):
        return (_unbroadcast(g * _finite_exp(av, ov), av.shape),
                _unbroadcast(g * _finite_exp(bv, ov), bv.shape))

    return _record(out, (a, b), vjp)


class GradientCheckError(RuntimeError):
    """Raised when a finite-difference probe produces a non-finite loss."""


def check_gradient(f, params, h=1e-4):
    """Compare tape gradients of f(params) against central finite differences.

    f takes the parameter list and returns a scalar Tensor; it is re-run from
    scratch at every probe. Returns the max over all coordinates of
    |analytic - fd| / max(1, |analytic|).
    """
    params = list(params)
    with Tape() as tape:
        loss = f(params)
    analytic = tape.backward(loss, params)
    worst = 0.0
    for pi, p in enumerate(params):
        flat = p.value.reshape(-1)
        an_flat = analytic[pi].reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            # probes may transiently leave the op domains; that is detected below,
            # so keep numpy quiet while evaluating them
            with np.errstate(all="ignore"):
                flat[ci] = orig + h
                fp = float(f(params).value)
                flat[ci] = orig - h
                fm = float(f(params).value)
                flat[ci] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise GradientCheckError(
                    f"non-finite loss probing parameter {pi} coordinate {ci}: "
                    f"f(+h)={fp}, f(-h)={fm}"
                )
            fd = (fp - fm) / (2.0 * h)
            err = abs(an_flat[ci] - fd) / max(1.0, abs(an_flat[ci]))
            worst = max(worst, err)
    return worst
