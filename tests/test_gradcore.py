import tracemalloc
import zlib

import numpy as np
import pytest

from mirec import gradcore as gc
from mirec.gradcore import Tensor, Tape

FD_TOL = 1e-6


def test_softmax_symmetry():
    np.testing.assert_allclose(gc.softmax(Tensor([0.0, 0.0])).value, [0.5, 0.5])


def test_softmax_no_overflow():
    out = gc.softmax(Tensor([1000.0, 1000.0])).value
    np.testing.assert_allclose(out, [0.5, 0.5])
    assert np.all(np.isfinite(out))


def test_softmax_closed_form():
    out = gc.softmax(Tensor([0.0, np.log(3.0)])).value
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=8) * 10
        p = gc.softmax(Tensor(x)).value
        assert abs(p.sum() - 1.0) <= 1e-12
        shifted = gc.softmax(Tensor(x + 123.456)).value
        assert np.max(np.abs(p - shifted)) <= 1e-12


def test_softmax_empty_is_error():
    with pytest.raises(ValueError, match="empty"):
        gc.softmax(Tensor(np.zeros(0)))


def test_logsumexp_known_value():
    out = gc.logsumexp(Tensor([np.log(2.0), np.log(3.0)]))
    np.testing.assert_allclose(out.value, np.log(5.0), atol=1e-12)


def test_masked_softmax_fully_masked_row_is_zero():
    x = Tensor(np.ones((2, 3)))
    mask = np.array([[True, True, False], [False, False, False]])
    with Tape() as tape:
        out = gc.masked_softmax(x, mask)
        loss = gc.tsum(out * np.arange(6.0).reshape(2, 3))
    np.testing.assert_allclose(out.value[1], 0.0)
    np.testing.assert_allclose(out.value[0], [0.5, 0.5, 0.0])
    (grad,) = tape.backward(loss, [x])
    assert np.all(np.isfinite(grad))
    np.testing.assert_allclose(grad[1], 0.0)


def test_masked_logsumexp_empty_row_is_neg_inf_with_zero_grad():
    x = Tensor(np.ones((2, 3)))
    mask = np.array([[True, False, True], [False, False, False]])
    with Tape() as tape:
        out = gc.masked_logsumexp(x, mask, axis=-1)
        loss = gc.tsum(gc.softplus(out))
    assert out.value[1] == -np.inf
    np.testing.assert_allclose(out.value[0], np.log(2.0) + 1.0)
    (grad,) = tape.backward(loss, [x])
    assert np.all(np.isfinite(grad))
    np.testing.assert_allclose(grad[1], 0.0)


def test_logaddexp_with_neg_inf_argument():
    a = Tensor(np.array(-np.inf))
    b = Tensor(np.array(1.5))
    with Tape() as tape:
        out = gc.logaddexp(a, b)
        loss = gc.tsum(out)
    np.testing.assert_allclose(out.value, 1.5)
    grad_a, grad_b = tape.backward(loss, [a, b])
    np.testing.assert_allclose(grad_a, 0.0)
    np.testing.assert_allclose(grad_b, 1.0)


def test_stop_grad_blocks_flow():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    with Tape() as tape:
        loss = gc.tsum(gc.stop_grad(x) * x)
    (grad,) = tape.backward(loss, [x])
    np.testing.assert_allclose(grad, x.value)


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3))
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y, [x])


def test_backward_twice_on_one_tape_returns_bit_equal_lists():
    x = Tensor(np.array([1.0, 2.0]))
    y = Tensor(np.array([3.0, -1.0]))
    with Tape() as tape:
        loss = gc.tsum(x * x * y)
    first = [g.tobytes() for g in tape.backward(loss, [x, y])]
    second = [g.tobytes() for g in tape.backward(loss, [x, y])]
    assert first == second


def test_backward_is_bit_deterministic():
    rng = np.random.default_rng(3)
    a_val = rng.normal(size=(4, 5))
    b_val = rng.normal(size=(5, 3))
    grads = []
    for _ in range(2):
        a, b = Tensor(a_val.copy()), Tensor(b_val.copy())
        with Tape() as tape:
            h = gc.tanh(a @ b)
            loss = gc.tsum(gc.softmax(h, axis=-1) * h + h * h)
        grads.append([g.tobytes() for g in tape.backward(loss, [a, b])])
    assert grads[0] == grads[1]


def _replay_keeping_every_gradient(tape, loss):
    """Tape.backward's replay without the release: a dict from each tensor's
    id to its gradient, where every gradient stays."""
    grads = {id(loss): np.ones((), dtype=np.float64)}
    for out, parents, vjp in reversed(tape.entries):
        if id(out) not in grads:
            continue
        for t, g in zip(parents, vjp(grads[id(out)])):
            if g is not None:
                grads[id(t)] = g if id(t) not in grads else grads[id(t)] + g
    return grads


def _mixed_graph(leaves):
    """A scalar loss over shared subexpressions, views, gathers and masks."""
    a, b, e = leaves
    h = gc.tanh(a @ b)
    mask = np.arange(15).reshape(5, 3) % 4 != 0
    rows = gc.gather_rows(e, np.array([[0, 2], [2, 1], [0, 0]]))
    mixed = gc.concat([gc.swapaxes(h, 0, 1), gc.reshape(rows, (3, 4))], axis=1)
    loss = gc.tsum(gc.softmax(h, axis=-1) * h + h * h)
    loss = loss + gc.tsum(gc.masked_logsumexp(h, mask)) - gc.tsum(gc.softplus(mixed))
    return loss + gc.tsum(gc.sqrt(mixed * mixed + 1.0) / (1.0 + gc.stop_grad(mixed)))


def test_backward_equals_a_replay_that_keeps_every_gradient():
    rng = np.random.default_rng(13)
    # e >= 0 and |tanh| < 1 keep the divisor 1 + mixed positive
    values = [rng.normal(size=(5, 4)), rng.normal(size=(4, 3)),
              np.abs(rng.normal(size=(3, 2)))]
    kept = [Tensor(v.copy()) for v in values]
    with Tape() as tape:
        loss = _mixed_graph(kept)
    every = _replay_keeping_every_gradient(tape, loss)
    released = [Tensor(v.copy()) for v in values]
    with Tape() as tape:
        loss = _mixed_graph(released)
    got = tape.backward(loss, released)
    assert len(got) == len(released)
    for ref, g in zip(kept, got):
        assert every[id(ref)].tobytes() == g.tobytes()


def test_backward_peak_memory_stays_near_one_gradient():
    x = Tensor(np.random.default_rng(14).normal(size=(256, 256)) * 0.1)
    with Tape() as tape:
        y = x
        for _ in range(40):
            y = gc.tanh(y)
        loss = gc.tsum(y)
    tracemalloc.start()
    try:
        tape.backward(loss, [x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * x.value.nbytes, f"backward peak {peak / x.value.nbytes:.1f}x one array"


BINARY = [("add", gc.add), ("sub", gc.sub), ("mul", gc.mul), ("div", gc.div)]


@pytest.mark.parametrize(
    "op,const_left",
    [(op, False) for _, op in BINARY] + [(op, True) for _, op in BINARY],
    ids=[n for n, _ in BINARY] + [f"{n}-left" for n, _ in BINARY],
)
def test_plain_array_operand_leaves_tensor_gradients_unchanged(op, const_left):
    rng = np.random.default_rng(4)
    x_val = rng.normal(size=(3, 4))
    c = 0.5 + np.abs(rng.normal(size=(4,)))
    w = rng.normal(size=(3, 4))
    grads, values = [], []
    for const in (c, Tensor(c)):
        x = Tensor(x_val.copy())
        with Tape() as tape:
            y = op(const, x) if const_left else op(x, const)
            loss = gc.tsum(y * w)
        values.append(y.value)
        grads += tape.backward(loss, [x])
    assert values[0].tobytes() == values[1].tobytes()
    assert grads[0].tobytes() == grads[1].tobytes()


def test_gather_rows_gradient_equals_add_at():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(7, 5)))
    idx = rng.integers(0, 3, size=(6, 9, 4))  # 3-D index, rows repeated ~70 times
    g = rng.normal(size=idx.shape + (5,))
    with Tape() as tape:
        loss = gc.tsum(gc.gather_rows(a, idx) * g)
    (grad,) = tape.backward(loss, [a])
    ref = np.zeros((7, 5))
    np.add.at(ref, idx, g)
    assert grad.tobytes() == ref.tobytes()


def test_take_per_row_gradient_equals_add_at():
    rng = np.random.default_rng(9)
    a = Tensor(rng.normal(size=(50, 3, 4)))
    idx = rng.integers(0, 3, size=50)
    g = rng.normal(size=(50, 4))
    with Tape() as tape:
        loss = gc.tsum(gc.take_per_row(a, idx) * g)
        loss = loss + gc.tsum(gc.take_per_row(a, np.zeros(50, dtype=np.int64)) * g)
    (grad,) = tape.backward(loss, [a])
    rows = np.arange(50)
    first, second = np.zeros(a.value.shape), np.zeros(a.value.shape)
    np.add.at(first, (rows, idx), g)
    np.add.at(second, (rows, np.zeros(50, dtype=np.int64)), g)
    assert grad.tobytes() == (second + first).tobytes()


def test_forward_without_tape_matches_taped_forward():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    plain = gc.softplus(gc.tanh(Tensor(x)) * 2.0).value
    with Tape():
        taped = gc.softplus(gc.tanh(Tensor(x)) * 2.0).value
    np.testing.assert_array_equal(plain, taped)


def test_check_gradient_quadratic():
    v = Tensor(np.random.default_rng(1).normal(size=6))

    def f(params):
        (p,) = params
        return gc.tsum(p * p) * 0.5

    assert gc.check_gradient(f, [v]) <= 1e-8


def test_check_gradient_softmax_cross_entropy():
    rng = np.random.default_rng(2)
    logits = Tensor(rng.normal(size=5))
    target = rng.dirichlet(np.ones(5))

    def f(params):
        (p,) = params
        return -gc.tsum(Tensor(target) * (p - gc.logsumexp(p)))

    assert gc.check_gradient(f, [logits]) <= 1e-6


def test_check_gradient_raises_on_non_finite_probe():
    v = Tensor(np.array([1e-5]))

    def f(params):
        (p,) = params
        return gc.tsum(gc.sqrt(p))  # 1e-5 - h < 0 probes sqrt out of its domain

    with pytest.raises(gc.GradientCheckError, match="coordinate 0"):
        gc.check_gradient(f, [v], h=1e-4)


def _inst_add(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4,)))
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.add(ps[0], ps[1]) * w), [a, b]


def _inst_sub(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 1)))
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.sub(ps[0], ps[1]) * w), [a, b]


def _inst_mul(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.mul(ps[0], ps[1]) * w), [a, b]


def _inst_div(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(0.5 + np.abs(rng.normal(size=(4,))))
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.div(ps[0], ps[1]) * w), [a, b]


def _inst_neg(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.neg(ps[0]) * w), [a]


def _inst_matmul(rng):
    if rng.integers(2):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        w = rng.normal(size=(2, 3, 5))
    else:
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        w = rng.normal(size=(3, 5))
    return lambda ps: gc.tsum(gc.matmul(ps[0], ps[1]) * w), [a, b]


def _inst_matmul_4d_weight(_rng):
    """The reconstruct shape: a (B, n_z, n_x, d_b) batch times a transposed weight."""
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)))
    w = Tensor(rng.normal(size=(6, 5)))
    c = rng.normal(size=(2, 3, 4, 6))
    return lambda ps: gc.tsum(gc.matmul(ps[0], gc.swapaxes(ps[1], 0, 1)) * c), [a, w]


def _inst_tanh(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.tanh(ps[0]) * w), [a]


def _inst_sqrt(rng):
    a = Tensor(0.1 + np.abs(rng.normal(size=(3, 4))))
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.sqrt(ps[0]) * w), [a]


def _inst_tsum(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    axis = [None, 0, 1][rng.integers(3)]
    keepdims = bool(rng.integers(2)) and axis is not None
    probe = gc.tsum(Tensor(a.value), axis=axis, keepdims=keepdims)
    w = rng.normal(size=probe.value.shape)
    return lambda ps: gc.tsum(gc.tsum(ps[0], axis=axis, keepdims=keepdims) * w), [a]


def _inst_reshape(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(2, 6))
    return lambda ps: gc.tsum(gc.reshape(ps[0], (2, 6)) * w), [a]


def _inst_swapaxes(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)))
    w = rng.normal(size=(4, 3, 2))
    return lambda ps: gc.tsum(gc.swapaxes(ps[0], 0, 2) * w), [a]


def _inst_concat(rng):
    parts = [Tensor(rng.normal(size=(2, n))) for n in (1, 3, 2)]
    w = rng.normal(size=(2, 6))
    return lambda ps: gc.tsum(gc.concat(ps, axis=1) * w), parts


def _inst_gather_rows(rng):
    a = Tensor(rng.normal(size=(6, 3)))
    idx = rng.integers(0, 6, size=(4, 2))
    w = rng.normal(size=(4, 2, 3))
    return lambda ps: gc.tsum(gc.gather_rows(ps[0], idx) * w), [a]


def _inst_take_per_row(rng):
    if rng.integers(2):
        a = Tensor(rng.normal(size=(4, 5)))
        w = rng.normal(size=(4,))
    else:
        a = Tensor(rng.normal(size=(4, 3, 2)))
        w = rng.normal(size=(4, 2))
    idx = rng.integers(0, a.value.shape[1], size=4)
    return lambda ps: gc.tsum(gc.take_per_row(ps[0], idx) * w), [a]


def _inst_softmax(rng):
    a = Tensor(rng.normal(size=(3, 5)))
    w = rng.normal(size=(3, 5))
    return lambda ps: gc.tsum(gc.softmax(ps[0], axis=-1) * w), [a]


def _inst_masked_softmax(rng):
    a = Tensor(rng.normal(size=(3, 5)))
    mask = rng.random((3, 5)) < 0.6
    mask[np.arange(3), rng.integers(0, 5, size=3)] = True
    w = rng.normal(size=(3, 5))
    return lambda ps: gc.tsum(gc.masked_softmax(ps[0], mask) * w), [a]


def _inst_masked_logsumexp(rng):
    a = Tensor(rng.normal(size=(3, 5)))
    mask = rng.random((3, 5)) < 0.6
    mask[np.arange(3), rng.integers(0, 5, size=3)] = True
    keepdims = bool(rng.integers(2))
    w = rng.normal(size=(3, 1) if keepdims else (3,))
    return (
        lambda ps: gc.tsum(gc.masked_logsumexp(ps[0], mask, axis=-1, keepdims=keepdims) * w),
        [a],
    )


def _inst_logsumexp(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    return lambda ps: gc.logsumexp(ps[0], axis=None), [a]


def _inst_softplus(rng):
    a = Tensor(rng.normal(size=(3, 4)) * 3)
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.softplus(ps[0]) * w), [a]


def _inst_logaddexp(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 4))
    return lambda ps: gc.tsum(gc.logaddexp(ps[0], ps[1]) * w), [a, b]


PRIMITIVES = [
    ("add", _inst_add),
    ("sub", _inst_sub),
    ("mul", _inst_mul),
    ("div", _inst_div),
    ("neg", _inst_neg),
    ("matmul", _inst_matmul),
    ("matmul_4d_weight", _inst_matmul_4d_weight),
    ("tanh", _inst_tanh),
    ("sqrt", _inst_sqrt),
    ("tsum", _inst_tsum),
    ("reshape", _inst_reshape),
    ("swapaxes", _inst_swapaxes),
    ("concat", _inst_concat),
    ("gather_rows", _inst_gather_rows),
    ("take_per_row", _inst_take_per_row),
    ("softmax", _inst_softmax),
    ("masked_softmax", _inst_masked_softmax),
    ("masked_logsumexp", _inst_masked_logsumexp),
    ("logsumexp", _inst_logsumexp),
    ("softplus", _inst_softplus),
    ("logaddexp", _inst_logaddexp),
]


@pytest.mark.parametrize("name,builder", PRIMITIVES, ids=[n for n, _ in PRIMITIVES])
def test_primitive_gradients_match_finite_differences(name, builder):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        f, params = builder(rng)
        worst = max(worst, gc.check_gradient(f, params))
    assert worst <= FD_TOL, f"{name}: max rel err {worst:.3e}"
