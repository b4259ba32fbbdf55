"""Tape ops that only the tests build with: the per-sample references in
nn_reference.py, the tape's own tests and the gradient checks. They use droidflow.nn.tape's Var
and helpers, as its own ops do."""

import numpy as np

from droidflow.nn.tape import Var, _sigmoid, _unbroadcast, scale


def sub(a: Var, b: Var) -> Var:
    return Var(
        a.value - b.value,
        (
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(-g, b.value.shape)),
        ),
    )


def slice_cols(a: Var, start: int, stop: int) -> Var:
    def fn(g):
        out = np.zeros_like(a.value)
        out[:, start:stop] = g
        return out

    return Var(a.value[:, start:stop], ((a, fn),))


def pick(a: Var, row: int, col: int) -> Var:
    def fn(g):
        out = np.zeros_like(a.value)
        out[row, col] = g.reshape(())
        return out

    return Var(a.value[row, col].reshape(()), ((a, fn),))


def neg(a: Var) -> Var:
    return scale(a, -1.0)


def matmul(a: Var, b: Var) -> Var:
    return Var(
        a.value @ b.value,
        (
            (a, lambda g: g @ b.value.T),
            (b, lambda g: a.value.T @ g),
        ),
    )


def sigmoid(a: Var) -> Var:
    y = _sigmoid(a.value)
    return Var(y, ((a, lambda g: g * y * (1.0 - y)),))
