"""Tape ops that only the tests build with: the per-sample references in
nn_reference.py and the gradient checks. They use droidflow.nn.tape's Var
and helpers, as its own ops do."""

import numpy as np

from droidflow.nn.tape import Var, _unbroadcast, scale


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
