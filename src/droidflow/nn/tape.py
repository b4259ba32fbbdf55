"""Minimal reverse-mode autodiff over numpy arrays.

Just enough operator coverage for the graph and sequence networks here:
elementwise arithmetic with broadcasting, matrix products (including the
batched edge-transform product), gathers/scatters for embeddings and
message aggregation, and the usual squashing functions. Values and
gradients are float64, except in the fused LSTM op's LSTM_DTYPE, float32:
its hidden states, and their gradients, up to the pooling sum. Every
parameter's gradient is float64, so the optimizer never sees float32.
"""

import numpy as np

# Compute dtype of the fused LSTM op, read at each call. float64 is kept
# only as the reference that the exactness tests pin it to.
LSTM_DTYPE = np.float32


class Var:
    """A node in the computation tape: value, accumulated grad, parent links."""

    __slots__ = ("value", "grad", "parents", "requires_grad", "__weakref__")

    def __init__(self, value, parents=(), requires_grad=None, dtype=np.float64):
        self.value = np.asarray(value, dtype=dtype)
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p, _ in parents)
        self.requires_grad = requires_grad
        # tuple of (Var, grad_fn); a Var no gradient flows through keeps none,
        # so work on constants builds no tape and frees its inputs at once
        self.parents = parents if requires_grad else ()
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


def constant(x) -> Var:
    return Var(x, requires_grad=False)


def parameter(x) -> Var:
    return Var(x, requires_grad=True)


def backward(root: Var):
    """Accumulate gradients of root w.r.t. every reachable leaf Var.

    Once an intermediate node has passed its gradient to its parents, it
    drops the gradient and its parent links, so the pass frees each node's
    closures and buffers as it goes and the tape holds few gradients at a
    time. The graph below root cannot be run backward twice."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            order.append(v)
            continue
        if id(v) in seen:
            continue
        seen.add(id(v))
        stack.append((v, True))
        for p, _ in v.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    while order:
        v = order.pop()
        if not v.parents:
            continue
        if v.grad is not None:
            for p, fn in v.parents:
                if p.requires_grad:
                    g = fn(v.grad)
                    p.grad = g if p.grad is None else p.grad + g
        v.grad = None
        v.parents = ()


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Var, b: Var) -> Var:
    return Var(
        a.value + b.value,
        (
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(g, b.value.shape)),
        ),
    )


def mul(a: Var, b: Var) -> Var:
    return Var(
        a.value * b.value,
        (
            (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
            (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
        ),
    )


def scale(a: Var, c) -> Var:
    c = np.asarray(c, dtype=np.float64)
    return Var(a.value * c, ((a, lambda g: _unbroadcast(g * c, a.value.shape)),))


def affine(x: Var, w: Var, b: Var) -> Var:
    """x @ w + b for a 2-D x and a 1-D b, as one node that keeps no product."""
    out = x.value @ w.value
    out += b.value
    return Var(out, ((x, lambda g: g @ w.value.T), (w, lambda g: x.value.T @ g),
                     (b, lambda g: g.sum(axis=0))))


def bmm_vec(a: Var, x: Var) -> Var:
    """Batched (E, s, s) @ (E, s) -> (E, s)."""
    out = np.einsum("eij,ej->ei", a.value, x.value)
    return Var(
        out,
        (
            (a, lambda g: g[:, :, None] * x.value[:, None, :]),
            (x, lambda g: np.einsum("eij,ei->ej", a.value, g)),
        ),
    )


def tanh(a: Var) -> Var:
    y = np.tanh(a.value)

    def fn(g):
        d = y * y           # g * (1 - y * y), in one buffer
        return np.multiply(np.subtract(1.0, d, out=d), g, out=d)

    return Var(y, ((a, fn),))


def _sigmoid(x, out=None):
    """0.5 * (1 + tanh(0.5 * x)), written into out (which may be x) if given."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def reshape(a: Var, shape) -> Var:
    return Var(a.value.reshape(shape), ((a, lambda g: g.reshape(a.value.shape)),))


def concat(vs, axis=0) -> Var:
    values = [v.value for v in vs]
    out = np.concatenate(values, axis=axis)
    parents = []
    start = 0
    for v in vs:
        size = v.value.shape[axis]
        lo = start

        def fn(g, lo=lo, size=size):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, lo + size)
            return g[tuple(index)]

        parents.append((v, fn))
        start += size
    return Var(out, tuple(parents), dtype=out.dtype)


def sum_axis(a: Var, axis: int, keepdims: bool = True) -> Var:
    """Sum in float64; the gradient is a read-only broadcast view in a's dtype."""
    def fn(g):
        g = g.astype(a.value.dtype, copy=False)
        return np.broadcast_to(g if keepdims else np.expand_dims(g, axis), a.value.shape)

    return Var(a.value.sum(axis=axis, keepdims=keepdims, dtype=np.float64), ((a, fn),))


def _add_rows(idx, rows, n):
    """(n, ...) float64 array whose row k sums rows[j] over idx[j] == k,
    added in j order onto 0.0, bit for bit as np.bincount(idx, weights) adds
    each column: each target's rows, sorted stably, are one C-ordered block,
    which numpy adds row by row (but a single column pairwise)."""
    idx = np.asarray(idx)
    width = int(np.prod(rows.shape[1:]))
    flat, out = rows.reshape(len(idx), width), np.zeros((n, width))
    if width == 1:
        out[:, 0] = np.bincount(idx, weights=flat[:, 0], minlength=n)
        return out.reshape((n,) + rows.shape[1:])
    if np.any(idx[1:] < idx[:-1]):   # no sort when idx is sorted already
        order = np.argsort(idx, kind="stable")
        idx, flat = idx[order], flat[order]
    flat, counts = np.ascontiguousarray(flat), np.bincount(idx, minlength=n)
    ends = np.cumsum(counts)
    one = counts == 1
    out[one] = 0.0 + flat[ends[one] - 1]   # 0.0 + -0.0 is bincount's 0.0
    for k in np.flatnonzero(counts > 1).tolist():
        np.add.reduce(flat[ends[k] - counts[k] : ends[k]], axis=0, dtype=np.float64,
                      out=out[k], initial=0.0)
    return out.reshape((n,) + rows.shape[1:])


def gather_rows(table: Var, idx) -> Var:
    idx, n = np.asarray(idx), len(table.value)   # backward reads no value of table
    return Var(table.value[idx], ((table, lambda g: _add_rows(idx, g, n)),))


def segment_sum(x: Var, seg, num_segments: int) -> Var:
    seg = np.asarray(seg)
    return Var(_add_rows(seg, x.value, num_segments), ((x, lambda g: g[seg]),))


def gated_readout(states: Var, rows, row_states, w: Var, b: Var, seg, num_segments: int) -> Var:
    """The gated graph readout segment_sum(mul(sigmoid(affine(h, w, b)), h),
    seg, num_segments) as one node, h being states with rows `rows` replaced
    by row_states (None when rows is empty). It keeps no node-sized array:
    while it runs, states' own value holds h, whose rows it puts back, and
    its backward pass computes the gate again, then the gradients of h and
    of the gate's pre-activation once, in place, with the composed ops'
    arithmetic, so each gradient it returns is theirs bit for bit."""
    rows = np.asarray(rows, dtype=np.intp)
    own_rows, shared = states.value[rows], []

    def with_h(fn):
        """fn(h, gate), called while states.value holds h."""
        h = states.value
        h[rows] = row_states.value if len(rows) else own_rows
        try:
            gate = h @ w.value
            gate += b.value
            return fn(h, _sigmoid(gate, out=gate))
        finally:
            h[rows] = own_rows

    def backward(h, gate, g):
        dh = g[seg]
        da = dh * h             # mul, to the gate
        da *= gate              # sigmoid: g * y * (1 - y)
        dh *= gate              # mul, to h
        da *= np.subtract(1.0, gate, out=gate)
        dh += np.matmul(da, w.value.T, out=gate)   # affine, to h; gate is spent
        d_rows = dh[rows]
        dh[rows] = 0.0
        return dh, d_rows, da.sum(axis=0), h.T @ da

    def grads(g, k):
        """Gradient k of (states, row_states, b, w), all computed once."""
        if not shared:
            shared.append(with_h(lambda h, gate: backward(h, gate, g)))
        return shared[0][k]

    parents = ((states, lambda g: grads(g, 0)), (w, lambda g: grads(g, 3)),
               (b, lambda g: grads(g, 2)))
    if row_states is not None:
        parents += ((row_states, lambda g: grads(g, 1)),)
    return Var(with_h(lambda h, gate: _add_rows(seg, np.multiply(gate, h, out=gate),
                                                num_segments)), parents)


# The gate buffer's order, i, f, o, g, of the gates packed i, f, g, o in the
# weights: one sigmoid then runs over the buffer's first three gates.
IFOG = [0, 1, 3, 2]


def lstm_form(wx, wh, b, embedding=None) -> tuple:
    """(inp, wh4, b4), the LSTM_DTYPE arrays one direction of lstm reads in
    its forward pass, from its float64 wx (d, 4u), wh (u, 4u) and b (4u,):
    wh4 is the C-contiguous (4, u, u) stack of wh's gate blocks and b4 the
    (4, 1, u) bias, both in buffer order, and inp is wx. Given the layer-0
    embedding (V, d), inp is instead the C-contiguous (V, 4, u) lookup table
    embedding @ wx + b, projected in float64, cast, then put in buffer order
    and added the bias, and b4 is None."""
    dt, units = LSTM_DTYPE, wh.shape[0]
    wh4 = wh.astype(dt, copy=False).reshape(units, 4, units).transpose(1, 0, 2)[IFOG]
    b4 = b.astype(dt, copy=False).reshape(4, 1, units)[IFOG]
    if embedding is None:
        return wx.astype(dt, copy=False), np.ascontiguousarray(wh4), b4
    table = (embedding @ wx).astype(dt, copy=False).reshape(-1, 4, units)
    return np.add(table[:, IFOG], b4[:, 0], order="C"), np.ascontiguousarray(wh4), None


def lstm(x: Var, wx: Var, wh: Var, b: Var, reverse: bool = False, tokens=None,
         out=None, form=None) -> Var:
    """One direction of an LSTM layer over a batch of rows, as one tape node.

    Time-major: x is (T, N, d), or, when tokens (N, T) are given, a lookup
    table (V, d) whose rows the tokens pick; the table is projected through
    wx once (V x 4u) and the projection gathered per token, so the (T*N, d)
    input is never built. Gates are packed i, f, g, o in wx, wh and b.
    Returns the hidden states H, (T, N, u), in input order, as LSTM_DTYPE,
    written into out (a (T, N, u) LSTM_DTYPE array or view) when given. The
    forward pass reads only lstm_form(wx, wh, b[, x]), or form when given:
    the same arrays, built once by a caller that runs many passes.

    The forward loop runs in plain numpy over one (T, 4, N, u) buffer of
    gate pre-activations plus bias, gate-major within each step in order
    i, f, o, g, and the states C and H: each gate of a step is one contiguous
    (N, u) block, the activations run in place, one sigmoid over i, f and o,
    and the recurrent products are one matmul over wh4's four (u, u) blocks.
    A layer input's (T*N, d) @ (d, 4u) projection is turned gate-major in
    place, one step at a time. On constant inputs C is one buffer updated in
    place; otherwise every step's C is kept, and the backward pass
    overwrites each step's slice of the buffer with the step's gate
    pre-activation gradients dZ in row layout, (N, 4u), i, f, g, o, so the
    spent buffer read as (T, N, 4u) is dZ, from which every input gradient
    follows in one product each. The buffer, the states, the recurrent
    products and the gradients of H and of a layer input are LSTM_DTYPE;
    every parameter's gradient is float64."""
    dt = LSTM_DTYPE
    inp, wh4, b4 = form or lstm_form(wx.value, wh.value, b.value,
                                     None if tokens is None else x.value)
    units = wh4.shape[-1]
    if tokens is None:
        x_c = x.value.astype(dt, copy=False)
        steps, n, d = x_c.shape
        z = (x_c.reshape(-1, d) @ inp).reshape(steps, 4, n, units)
        for t in range(steps):   # each step's (N, 4u) rows, rewritten gate-major, plus b
            np.add(z[t].reshape(n, 4, units).transpose(1, 0, 2)[IFOG], b4, out=z[t])
    else:
        tokens = np.asarray(tokens).T
        steps, n = tokens.shape
        z = inp[tokens[:, None], np.arange(4)[:, None]]
    hs = np.empty((steps, n, units), dt) if out is None else out
    grad = any(v.requires_grad for v in (x, wx, wh, b))
    cs = np.empty((steps, n, units), dt) if grad else None
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = np.zeros((n, units), dt)
    c = np.zeros((n, units), dt)
    rec = np.empty((4, n, units), dt)   # a step's recurrent products, then i * g
    for t in order:
        zt = z[t]
        zt += np.matmul(h, wh4, out=rec)
        _sigmoid(zt[:3], out=zt[:3])
        np.tanh(zt[3], out=zt[3])
        i, f, o, g = zt
        c = np.multiply(f, c, out=c if cs is None else cs[t])
        c += np.multiply(i, g, out=rec[0])
        h = np.tanh(c, out=hs[t])
        h *= o

    dz = []

    def gate_grads(dh_out):
        """dZ, (T, N, 4u), computed once and shared by every input's gradient."""
        if dz:
            return dz[0]
        wh_c = wh.value.astype(dt, copy=False)
        dh = np.zeros((n, units), dt)
        dc = np.zeros((n, units), dt)
        for k, t in enumerate(reversed(order)):
            i, f, o, g = z[t]
            c_prev = cs[t + 1 if reverse else t - 1] if k < steps - 1 else 0.0
            tc = np.tanh(cs[t])
            dh = dh + dh_out[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            d_i = dc * g * i * (1.0 - i)
            d_f = dc * c_prev * f * (1.0 - f)
            d_g = dc * i * (1.0 - g * g)
            d_o = dh * tc * o * (1.0 - o)
            dc = dc * f
            zt = z[t].reshape(n, 4, units)   # the step's slice, now in row layout
            zt[:, 0], zt[:, 1], zt[:, 2], zt[:, 3] = d_i, d_f, d_g, d_o
            dh = zt.reshape(n, 4 * units) @ wh_c.T
        dz.append(z.reshape(steps, n, 4 * units))
        return dz[0]

    def flat(a):
        return a.reshape(-1, a.shape[-1])

    def wide(a):
        return a.astype(np.float64, copy=False)

    def d_wh(g):
        dzv = gate_grads(g)
        if reverse:
            return wide(flat(hs[1:]).T @ flat(dzv[:-1]))
        return wide(flat(hs[:-1]).T @ flat(dzv[1:]))

    if tokens is None:
        parents = (
            (x, lambda g: (flat(gate_grads(g)) @ inp.T).reshape(x.value.shape)),
            (wx, lambda g: wide(flat(x_c).T @ flat(gate_grads(g)))),
        )
    else:
        proj = []

        def d_proj(g):
            if not proj:
                proj.append(_add_rows(tokens.reshape(-1), flat(gate_grads(g)), len(x.value)))
            return proj[0]

        parents = (
            (x, lambda g: d_proj(g) @ wx.value.T),
            (wx, lambda g: x.value.T @ d_proj(g)),
        )
    b_grad = (b, lambda g: gate_grads(g).sum(axis=(0, 1), dtype=np.float64))
    return Var(hs, parents + ((wh, d_wh), b_grad), dtype=dt)


def bilstm(x: Var, fwd, bwd, tokens=None, forms=(None, None)) -> Var:
    """A bidirectional LSTM layer, (T, N, 2u): the lstm nodes of the two
    directions, fwd and bwd being each one's (wx, wh, b) and forms each one's
    lstm form or None, write their H into the halves of the one buffer this
    node holds, not a concatenated copy."""
    steps, n = np.shape(tokens)[::-1] if tokens is not None else x.value.shape[:2]
    u = fwd[1].value.shape[0]
    out = np.empty((steps, n, 2 * u), LSTM_DTYPE)
    f = lstm(x, *fwd, tokens=tokens, out=out[:, :, :u], form=forms[0])
    r = lstm(x, *bwd, reverse=True, tokens=tokens, out=out[:, :, u:], form=forms[1])
    return Var(out, ((f, lambda g: g[:, :, :u]), (r, lambda g: g[:, :, u:])), dtype=out.dtype)


def log_softmax(a: Var) -> Var:
    z = a.value - a.value.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def fn(g):
        return g - np.exp(logp) * g.sum(axis=-1, keepdims=True)

    return Var(logp, ((a, fn),))
