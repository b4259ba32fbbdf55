"""Finite-difference verification of the tape gradients.

Central differences on a random coordinate subset, compared against the
analytic gradients from one backward pass. The builder closure recomputes
the scalar loss from a name -> array dict, so perturbations see exactly the
forward path the tape differentiates.
"""

import numpy as np

from droidflow.nn import tape


def grad_check(loss_builder, arrays: dict, epsilon: float = 1e-4,
               n_coords: int = 100, seed: int = 0) -> float:
    """Max relative error between analytic and numerical gradients.

    loss_builder(var_dict) must return a scalar Var when given Vars and may
    be called with constants for the perturbed evaluations.
    """
    if not 1e-5 <= epsilon <= 1e-3:
        raise ValueError("epsilon outside [1e-5, 1e-3]")
    pv = {name: tape.parameter(arr) for name, arr in arrays.items()}
    loss = loss_builder(pv)
    tape.backward(loss)
    analytic = {
        name: (pv[name].grad if pv[name].grad is not None else np.zeros_like(arrays[name]))
        for name in arrays
    }

    coords = []
    for name in sorted(arrays):
        for flat in range(arrays[name].size):
            coords.append((name, flat))
    rng = np.random.default_rng(seed)
    if len(coords) > n_coords:
        chosen = [coords[i] for i in rng.choice(len(coords), n_coords, replace=False)]
    else:
        chosen = coords

    def value_at(perturbed):
        cv = {name: tape.constant(arr) for name, arr in perturbed.items()}
        return float(loss_builder(cv).value)

    worst = 0.0
    for name, flat in chosen:
        base = arrays[name].reshape(-1)[flat]
        plus = {k: v.copy() for k, v in arrays.items()}
        plus[name].reshape(-1)[flat] = base + epsilon
        minus = {k: v.copy() for k, v in arrays.items()}
        minus[name].reshape(-1)[flat] = base - epsilon
        numeric = (value_at(plus) - value_at(minus)) / (2 * epsilon)
        a = analytic[name].reshape(-1)[flat]
        err = abs(a - numeric) / max(1e-6, abs(a) + abs(numeric))
        worst = max(worst, err)
    return worst
