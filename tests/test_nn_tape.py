import weakref

import numpy as np
import pytest

from droidflow.nn import tape

from gradcheck import grad_check


def scalar(v):
    """Reduce any Var to a scalar by summing twice."""
    while v.value.ndim > 0:
        v = tape.sum_axis(v, axis=0, keepdims=False)
    return v


def check(builder, arrays, tol=1e-7):
    err = grad_check(builder, arrays, epsilon=1e-4, n_coords=100, seed=3)
    assert err <= tol, err


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))}
    check(lambda pv: scalar(tape.mul(tape.add(pv["a"], pv["b"]), pv["a"])), arrays)


def test_matmul():
    rng = np.random.default_rng(1)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
    check(lambda pv: scalar(tape.tanh(tape.matmul(pv["a"], pv["b"]))), arrays)


def test_bmm_vec():
    rng = np.random.default_rng(2)
    arrays = {"a": rng.normal(size=(5, 3, 3)), "x": rng.normal(size=(5, 3))}
    check(lambda pv: scalar(tape.bmm_vec(pv["a"], pv["x"])), arrays)


def test_sigmoid_tanh_chain():
    rng = np.random.default_rng(3)
    arrays = {"a": rng.normal(size=(2, 6))}
    check(lambda pv: scalar(tape.sigmoid(tape.tanh(pv["a"]))), arrays)


def test_concat_slice():
    rng = np.random.default_rng(4)
    arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))}

    def builder(pv):
        cat = tape.concat([pv["a"], pv["b"]], axis=1)
        return scalar(tape.mul(tape.slice_cols(cat, 1, 4), tape.slice_cols(cat, 0, 3)))

    check(builder, arrays)


def test_gather_segment():
    rng = np.random.default_rng(5)
    arrays = {"t": rng.normal(size=(4, 3))}
    idx = np.array([0, 2, 2, 1, 3])
    seg = np.array([1, 0, 1, 1, 0])

    def builder(pv):
        rows = tape.gather_rows(pv["t"], idx)
        return scalar(tape.tanh(tape.segment_sum(rows, seg, 2)))

    check(builder, arrays)


def test_log_softmax_pick():
    rng = np.random.default_rng(6)
    arrays = {"z": rng.normal(size=(1, 4))}
    check(lambda pv: tape.neg(tape.pick(tape.log_softmax(pv["z"]), 0, 2)), arrays)


def test_reshape_scale_sub():
    rng = np.random.default_rng(7)
    arrays = {"a": rng.normal(size=(2, 6))}

    def builder(pv):
        r = tape.reshape(pv["a"], (3, 4))
        return scalar(tape.sub(tape.scale(r, 2.5), tape.tanh(r)))

    check(builder, arrays)


def test_backward_accumulates_shared_nodes():
    a = tape.parameter(np.array([[2.0]]))
    b = tape.mul(a, a)  # a^2
    c = tape.add(b, b)  # 2 a^2, dc/da = 4a = 8
    tape.backward(c)
    assert a.grad == pytest.approx(np.array([[8.0]]))


def test_deep_chain_no_recursion_limit():
    v = tape.parameter(np.ones((1, 1)) * 0.01)
    x = v
    for _ in range(5000):
        x = tape.add(x, v)
    tape.backward(x)
    assert v.grad == pytest.approx(np.array([[5001.0]]))


def test_constants_build_no_tape():
    # scoring runs the model on constants: no op may keep its inputs alive
    c = tape.constant(np.ones((2, 3)))
    on_constants = tape.tanh(tape.matmul(c, tape.constant(np.ones((3, 2)))))
    assert not on_constants.requires_grad and on_constants.parents == ()
    on_parameter = tape.matmul(c, tape.parameter(np.ones((3, 2))))
    assert on_parameter.requires_grad and len(on_parameter.parents) == 2


def test_backward_frees_each_node_as_it_passes_on_its_gradient():
    # An intermediate node is dead before the nodes below it get their
    # gradients, and no node left alive after the pass keeps parent links.
    p = tape.parameter(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
    refs, alive_when_low_ran = [], []

    def low_grad(g):
        alive_when_low_ran.append(refs[0]() is not None)
        return 2.0 * g

    low = tape.Var(2.0 * p.value, ((p, low_grad),))
    mid = tape.tanh(low)
    refs.append(weakref.ref(mid))
    kept = tape.sigmoid(mid)
    root = scalar(kept)
    del mid
    tape.backward(root)
    assert alive_when_low_ran == [False]
    assert refs[0]() is None
    assert low.parents == () and kept.parents == () and root.parents == ()
    assert low.grad is None and kept.grad is None
    y = np.tanh(2.0 * p.value)
    s = 1.0 / (1.0 + np.exp(-y))
    assert np.allclose(p.grad, s * (1 - s) * (1 - y * y) * 2.0)
