"""Symbolic reference derivatives for the built-in Lagrangians and graph densities.

Each oracle writes L(x, y), or F(bases, values, slopes), as a sympy
expression, differentiates it exactly in the fiber coordinates (or in the
slopes) and lambdifies the value, gradient and Hessian together, once per
session.  sympy is imported directly: without it collection fails, instead
of skipping the suite's tightest derivative check.
"""

import functools
import math

import numpy as np
import sympy as sp

from multisymp.lagrangian import _graph_chart_layout

# F as an expression of the bases b (p), the values v (n-p), the slope matrix q (p x (n-p)) and the
# density's parameters w; only helpers.weighted_minimal_surface reads b, v and w (w = its a, then its c)
DENSITIES = {
    "constant": lambda b, v, q, w: sp.Integer(1),
    "minimal_surface": lambda b, v, q, w: sp.sqrt(1 + sum(c**2 for c in q)),
    "graph_area": lambda b, v, q, w: sp.sqrt((sp.eye(q.rows) + q * q.T).det(method="berkowitz")),
    "weighted_minimal_surface": lambda b, v, q, w: (sp.exp(sum(wk * s for wk, s in zip(w, [*b, *v])))
                                                     * sp.sqrt(1 + sum(c**2 for c in q))),
}

# L as an expression of the fiber coordinates y
LAGRANGIANS = {
    "projected_volume": lambda y: y[0],
    # |prod y|^(1/D) written without Abs, so that its derivatives carry no sign()
    "geometric_mean": lambda y: sp.Mul(*(c**2 for c in y)) ** sp.Rational(1, 2 * len(y)),
}


def _compiled(args, expr, wrt):
    """(arrays whose columns are args, in order) -> (values (N,), gradients (N, k), Hessians (N, k, k)) in wrt."""
    k = len(wrt)
    upper = np.triu_indices(k)  # the Hessian is symmetric: differentiate its upper triangle only
    grad = [sp.diff(expr, v) for v in wrt]
    hess = [sp.diff(grad[i], wrt[j]) for i, j in zip(*upper)]
    fn = sp.lambdify(args, [expr, *grad, *hess], "numpy", cse=True)

    def evaluate(*arrays):
        columns = np.concatenate([np.asarray(a, dtype=float).reshape(len(a), -1) for a in arrays], axis=1).T
        # constant entries come back as scalars: broadcast them to the rows
        out = np.stack([np.broadcast_to(np.asarray(v, dtype=float), columns.shape[1:]) for v in fn(*columns)], axis=-1)
        H = np.zeros((len(out), k, k))
        H[:, upper[0], upper[1]] = H[:, upper[1], upper[0]] = out[:, k + 1:]
        return out[:, 0], out[:, 1:k + 1], H

    return evaluate


@functools.cache
def _conformal_weighted_norm(n: int, p: int):
    """exp(a.x) sqrt(sum_I w_I y_I^2), with the weights w and the exponent a as trailing arguments."""
    x, y = sp.symbols(f"x0:{n}"), sp.symbols(f"y0:{math.comb(n, p)}")
    w, a = sp.symbols(f"w0:{len(y)}"), sp.symbols(f"a0:{n}")
    expr = sp.exp(sum(ak * xk for ak, xk in zip(a, x))) * sp.sqrt(sum(wk * c**2 for wk, c in zip(w, y)))
    return _compiled([*x, *y, *w, *a], expr, y)


@functools.cache
def lagrangian_oracle(name: str, n: int, p: int, params: tuple[float, ...] = ()):
    """(xs (N, n), cs (N, C(n,p))) -> exact values, fiber gradients and fiber Hessians of the named L.

    ``area``, ``ellipsoid`` (params: the weights) and ``conformal_area``
    (params: the exponent a of helpers.conformal_area) share one oracle of
    exp(a.x) sqrt(sum w y^2).  Otherwise ``name`` is a key of LAGRANGIANS or
    graph_lift(<density>) (params: the density's); the lift is
    y_top * F(x_1..x_p, x_{p+1}..x_n, q(y)) with q read through
    _graph_chart_layout and y_top a positive symbol.
    """
    dim = math.comb(n, p)
    if name in ("area", "ellipsoid", "conformal_area"):
        w = params if name == "ellipsoid" else (1.0,) * dim
        a = params if name == "conformal_area" else (0.0,) * n
        norm = _conformal_weighted_norm(n, p)
        return lambda xs, cs: norm(xs, cs, np.broadcast_to(w, (len(cs), dim)), np.broadcast_to(a, (len(cs), n)))
    x, y = list(sp.symbols(f"x0:{n}")), list(sp.symbols(f"y0:{dim}"))
    if name.startswith("graph_lift("):
        top, slope_pos, slope_sign = _graph_chart_layout(n, p)
        y[top] = sp.Symbol(f"y{top}", positive=True)
        q = sp.Matrix(p, n - p, lambda i, j: int(slope_sign[i, j]) * y[slope_pos[i, j]] / y[top])
        expr = y[top] * DENSITIES[name[len("graph_lift("):-1]](x[:p], x[p:], q, params)
    else:
        expr = LAGRANGIANS[name](y)
    return _compiled(x + y, expr, y)


@functools.cache
def density_oracle(name: str, n: int, p: int, params: tuple[float, ...] = ()):
    """(bases, values, slopes) -> exact F (N,), dF/dq (N, p, n-p) and d2F/dq2 (N, p, n-p, p, n-p)."""
    bases, values = sp.symbols(f"b0:{p}"), sp.symbols(f"v0:{n - p}")
    q = sp.Matrix(p, n - p, lambda i, j: sp.Symbol(f"q{i}_{j}"))
    evaluate = _compiled([*bases, *values, *q], DENSITIES[name](bases, values, q, params), list(q))

    def shaped(bases, values, slopes):
        F, dF, d2F = evaluate(bases, values, slopes)
        return F, dF.reshape(slopes.shape), d2F.reshape(slopes.shape + slopes.shape[1:])

    return shaped


def assert_rows_close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-12) -> None:
    """Per row, the largest difference is at most rtol times the largest entry of ``want`` (0 for a zero row)."""
    assert got.shape == want.shape
    diff = np.abs(got - want).reshape(len(want), -1).max(axis=1)
    scale = np.abs(want).reshape(len(want), -1).max(axis=1)
    worst = int(np.argmax(diff - rtol * scale))
    assert np.all(diff <= rtol * scale), \
        f"row {worst}: difference {diff[worst]:.3e} against entries up to {scale[worst]:.3e}"
