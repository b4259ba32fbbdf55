import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from droidflow.nn import tape

import tape_ops
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
    check(lambda pv: scalar(tape.tanh(tape_ops.matmul(pv["a"], pv["b"]))), arrays)


def test_bmm_vec():
    rng = np.random.default_rng(2)
    arrays = {"a": rng.normal(size=(5, 3, 3)), "x": rng.normal(size=(5, 3))}
    check(lambda pv: scalar(tape.bmm_vec(pv["a"], pv["x"])), arrays)


def test_sigmoid_tanh_chain():
    rng = np.random.default_rng(3)
    arrays = {"a": rng.normal(size=(2, 6))}
    check(lambda pv: scalar(tape_ops.sigmoid(tape.tanh(pv["a"]))), arrays)


def test_concat_slice():
    rng = np.random.default_rng(4)
    arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))}

    def builder(pv):
        cat = tape.concat([pv["a"], pv["b"]], axis=1)
        return scalar(tape.mul(tape_ops.slice_cols(cat, 1, 4), tape_ops.slice_cols(cat, 0, 3)))

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


def test_affine():
    rng = np.random.default_rng(8)
    arrays = {"x": rng.normal(size=(5, 3)), "w": rng.normal(size=(3, 4)),
              "b": rng.normal(size=4)}
    check(lambda pv: scalar(tape.tanh(tape.affine(pv["x"], pv["w"], pv["b"]))), arrays)


@pytest.mark.parametrize("rows", [[], [1, 4], [0, 1, 2, 3, 4, 5]], ids=["none", "some", "all"])
def test_gated_readout(rows):
    rng = np.random.default_rng(9)
    arrays = {"states": rng.normal(size=(6, 3)), "w": rng.normal(size=(3, 3)),
              "b": rng.normal(size=3)}
    if rows:
        arrays["row_states"] = rng.normal(size=(len(rows), 3))
    seg = np.array([0, 0, 2, 2, 2, 0])   # segment 1 is empty

    def builder(pv):
        out = tape.gated_readout(pv["states"], rows, pv.get("row_states"), pv["w"], pv["b"],
                                 seg, 3)
        return scalar(tape.tanh(out))

    check(builder, arrays)


def one_shot_add_rows(idx, rows, n):
    """_add_rows as one bincount over an (n x width) bin index, as it was
    first written."""
    width = int(np.prod(rows.shape[1:]))
    flat = (np.asarray(idx)[:, None] * width + np.arange(width)).reshape(-1)
    out = np.bincount(flat, weights=rows.reshape(-1), minlength=n * width)
    return out.reshape((n,) + rows.shape[1:])


def assert_add_rows_matches_one_bincount(idx, rows, n):
    got = tape._add_rows(idx, rows, n)
    want = one_shot_add_rows(idx, rows, n).astype(np.float64)   # int64 zeros when idx is empty
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(st.data(), st.integers(1, 9), st.integers(0, 60), st.integers(0, 3),
       st.sampled_from([np.float64, np.float32]), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_add_rows_matches_one_bincount(data, n, length, extra_dims, dtype, width_one, fortran,
                                       sort):
    # Width 1, F-ordered rows and sorted idx are drawn on purpose: numpy sums
    # a single column or an F-ordered block pairwise, and a sorted idx skips
    # the sort. Every sum must be bit for bit the one bincount's, -0.0 terms
    # and all, and float64 even for no rows.
    dims = [1] * extra_dims if width_one else data.draw(
        st.lists(st.integers(0, 7), min_size=extra_dims, max_size=extra_dims))
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=length,
                                      max_size=length)), dtype=np.intp)
    if sort:
        idx.sort()
    seed = data.draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).normal(size=(length, *dims)).astype(dtype)
    rows[rows > 0.7] = -0.0   # about a quarter, so that some sums are all -0.0
    if fortran:   # a strided view, as gradients can be
        rows = np.asfortranarray(rows)
    assert_add_rows_matches_one_bincount(idx, rows, n)


def test_add_rows_matches_one_bincount_at_the_embedding_gradient():
    # Layer 0's embedding gradient on large-apps: 10,000 tokens' float32 gate
    # gradients, 4 * 32 columns, onto 256 opcodes, skewed as opcodes are.
    rng = np.random.default_rng(11)
    idx = np.minimum(rng.geometric(0.02, 10_000), 255)
    rows = rng.normal(size=(10_000, 128)).astype(np.float32)
    rows[rows > 2.5] = -0.0
    assert_add_rows_matches_one_bincount(idx, rows, 256)


def test_add_rows_scratch_is_bounded():
    # Layer 1's embedding gradient at the row cap: 64 rows of 100 opcodes
    # scattered onto 256 tokens at 4 * 256 units, in the LSTM's float32. One
    # bincount over every cell took about 107 MB on top of its result; the
    # rows' sorted float32 copy takes 25 MB.
    rng = np.random.default_rng(10)
    idx = rng.integers(0, 256, 6400)
    rows = rng.normal(size=(6400, 1024)).astype(np.float32)
    tracemalloc.start()
    try:
        out = tape._add_rows(idx, rows, 256)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert out.shape == (256, 1024)
    assert peak < 40, peak


def float32_bits(sign, exponent, mantissa):
    return sign << 31 | min(max(exponent, 0), 254) << 23 | mantissa


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 254), st.integers(0, 2**23 - 1),
                          st.integers(0, 1), st.integers(-26, 26), st.integers(0, 2**23 - 1)),
                min_size=1, max_size=200))
@settings(max_examples=300, deadline=None)
def test_float32_sum_is_the_float64_sum_rounded(pairs):
    # backward sums the two directions' float32 gradients of a layer input in
    # float32, where they were widened, summed in float64 and rounded back.
    # Both are bit for bit the same: float64's 53 bits are at least 2 * 24 + 2,
    # so rounding twice is innocuous for addition (Figueroa 1995). Exponents
    # are drawn uniformly, subnormals and sums that overflow to infinity
    # included, and b's within 26 of a's, where rounding is at stake.
    bits = [(float32_bits(s, e, m), float32_bits(t, e + d, n)) for s, e, m, t, d, n in pairs]
    a, b = (np.array(col, np.uint32).view(np.float32) for col in zip(*bits))
    with np.errstate(over="ignore"):
        want = (a.astype(np.float64) + b.astype(np.float64)).astype(np.float32)
        got = a + b
    assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()


def test_log_softmax_pick():
    rng = np.random.default_rng(6)
    arrays = {"z": rng.normal(size=(1, 4))}
    check(lambda pv: tape_ops.neg(tape_ops.pick(tape.log_softmax(pv["z"]), 0, 2)), arrays)


def test_reshape_scale_sub():
    rng = np.random.default_rng(7)
    arrays = {"a": rng.normal(size=(2, 6))}

    def builder(pv):
        r = tape.reshape(pv["a"], (3, 4))
        return scalar(tape_ops.sub(tape.scale(r, 2.5), tape.tanh(r)))

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
    on_constants = tape.tanh(tape_ops.matmul(c, tape.constant(np.ones((3, 2)))))
    assert not on_constants.requires_grad and on_constants.parents == ()
    on_parameter = tape_ops.matmul(c, tape.parameter(np.ones((3, 2))))
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
    kept = tape_ops.sigmoid(mid)
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
