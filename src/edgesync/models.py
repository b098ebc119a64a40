"""Agent dynamics: drift f, input field g, feedback primitive alpha.

All agents in a network share one model (homogeneous dynamics) with a
single scalar input channel. Built-in models: a linear pair, a
saturating-perturbation model whose certificate conditions hold exactly
(constant g, linear alpha, bounded Jacobian perturbation), and the
three-state convective loop with a state-dependent input field. Each
model gives g only as add_gu, which adds g u to a drift stack in place,
so that the closed-loop field f + g u of a whole stack, field_all, forms
no g array; the integrator calls field_all at every stage.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class AgentModel:
    """Evaluator bundle for one agent's dynamics.

    f_all, alpha_all and add_gu act on an (N, n) stack of states, one
    row per agent; jac_f, jac_g act on a single state vector. The
    single-state f and alpha evaluate the batched callables on a one-row
    stack, so both paths give identical floating-point results.
    add_gu(out, xs, u) adds g(x_i) u_i to row i of out in place, with no
    g array; a component whose g is identically 0 is left alone. g is
    the one input field: g(x) is add_gu on a zero row with u = 1. f_all
    returns a fresh (N, n) array, which the integrator overwrites. The
    input is scalar.
    """

    name: str
    state_dim: int
    params: dict
    jac_f: callable
    jac_g: callable
    f_all: callable
    alpha_all: callable
    add_gu: callable

    def field_all(self, xs, u):
        """Closed-loop field f(x_i) + g(x_i) u_i of every row, one fresh array.

        A component whose g is identically 0 is f alone.
        """
        out = self.f_all(xs)
        self.add_gu(out, xs, u)
        return out

    def f(self, x):
        return self.f_all(np.asarray(x, dtype=float)[None, :])[0]

    def g(self, x):
        out = np.zeros((1, self.state_dim))
        self.add_gu(out, np.asarray(x, dtype=float)[None, :], np.ones(1))
        return out[0]

    def alpha(self, x):
        return float(self.alpha_all(np.asarray(x, dtype=float)[None, :])[0])


def _agent_model(name, n, k, params, f_all, add_gu, jac_f, jac_g):
    """The AgentModel of one kind on n states, with feedback alpha(x) = k x.

    k is the gain row, of shape (n,) or (1, n); params gain its checked
    copy as "k".
    """
    kv = np.asarray(k, dtype=float)
    if kv.ndim == 2:
        if kv.shape != (1, n):
            raise DimensionMismatchError(
                f"gain has shape {kv.shape}, expected (1, {n})")
        kv = kv[0]
    if kv.shape != (n,):
        raise DimensionMismatchError(f"gain has shape {kv.shape}, expected ({n},)")

    def alpha_all(xs):
        return xs.dot(kv)

    return AgentModel(
        name=name,
        state_dim=n,
        params={**params, "k": kv},
        jac_f=jac_f,
        jac_g=jac_g,
        f_all=f_all,
        alpha_all=alpha_all,
        add_gu=add_gu,
    )


def _constant_input_model(name, a, b, k, drift, **params):
    """A model with a square drift matrix a and the constant input field g(x) = b.

    b is a vector or a one-column matrix. drift(a) returns the kind's
    f_all and jac_f on the checked float matrix a.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"a must be square, got {a.shape}")
    n = a.shape[0]
    bv = np.asarray(b, dtype=float)
    if bv.ndim == 2:
        if bv.shape[1] != 1:
            raise DimensionMismatchError(
                f"input matrix has {bv.shape[1]} columns, input dimension is fixed at 1"
            )
        bv = bv[:, 0]
    if bv.shape != (n,):
        raise DimensionMismatchError(
            f"input vector has shape {bv.shape}, expected ({n},)")
    zero = np.zeros((n, n))

    def add_gu(out, xs, u):
        out += u[:, None] * bv

    f_all, jac_f = drift(a)
    return _agent_model(name, n, k, {"a": a, "b": bv, **params}, f_all, add_gu,
                        jac_f, lambda x: zero)


def linear_model(a, b, k):
    """Linear agent: f(x) = A x, constant g = B, alpha(x) = K x."""
    def drift(a):
        return (lambda xs: xs @ a.T), (lambda x: a)

    return _constant_input_model("linear", a, b, k, drift)


def tanh_perturbed_model(a, b, gamma, k):
    """Linear drift plus a saturating componentwise perturbation.

    f(x) = A x + gamma * tanh(x), g = B constant, alpha(x) = K x. The
    Jacobian is A + gamma * diag(sech^2), so the drift never leaves the
    gamma-ball around A: every certificate condition stays checkable by
    a single sampled bound.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    gamma = float(gamma)

    def drift(a):
        def jac_f(x):
            sech2 = 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2
            return a + gamma * np.diag(sech2)

        return (lambda xs: xs @ a.T + gamma * np.tanh(xs)), jac_f

    return _constant_input_model("tanh_perturbed", a, b, k, drift, gamma=gamma)


def convective_linearization(a, b, c):
    """Origin linearization of the convective-loop drift and input field."""
    a_lin = np.array([[-a, a, 0.0], [b, -1.0, 0.0], [0.0, 0.0, -c]])
    b_lin = np.array([1.0, 2.0, 0.0])
    return a_lin, b_lin


def lorenz_model(a, b, c, k):
    """Three-state convective loop with a state-dependent input field.

        f(x) = ( a (x2 - x1),  x1 (b - x3) - x2,  x1 x2 - c x3 )
        g(x) = ( 1,  2 + sin(x1),  0 )
        alpha(x) = K x

    The chaotic regime for this drift layout is b=28, c=8/3. The gain K
    is usually designed on convective_linearization(a, b, c).
    """
    a, b, c = float(a), float(b), float(c)

    # columns written in place: the operations of stacking them, less overhead
    def f_all(xs):
        x1, x2, x3 = xs[:, 0], xs[:, 1], xs[:, 2]
        out = np.empty(xs.shape)
        np.multiply(a, x2 - x1, out=out[:, 0])
        np.subtract(x1 * (b - x3), x2, out=out[:, 1])
        np.subtract(x1 * x2, c * x3, out=out[:, 2])
        return out

    # u to column 0 and (sin x1 + 2) u to column 1; column 2's g is 0
    def add_gu(out, xs, u):
        out[:, 0] += u
        gu = np.sin(xs[:, 0])
        gu += 2.0
        gu *= u
        out[:, 1] += gu

    def jac_f(x):
        x1, x2, x3 = x
        return np.array([
            [-a, a, 0.0],
            [b - x3, -1.0, -x1],
            [x2, x1, -c],
        ])

    def jac_g(x):
        out = np.zeros((3, 3))
        out[1, 0] = np.cos(x[0])
        return out

    return _agent_model("lorenz", 3, k, {"a": a, "b": b, "c": c}, f_all, add_gu,
                        jac_f, jac_g)
