"""Agent dynamics: drift f, input field g, feedback primitive alpha.

All agents in a network share one model (homogeneous dynamics) with a
single scalar input channel. Built-in models: a linear pair, a
saturating-perturbation model whose certificate conditions hold exactly
(constant g, linear alpha, bounded Jacobian perturbation), and the
three-state convective loop with a state-dependent input field.

Each model writes its drift, its input field and its feedback once:
f_all, add_gu and alpha_all evaluate a stack of states into an output
buffer with positional-out ufunc calls. What a formula needs besides
its buffers (column views, scratch arrays, full-length constants) are
its operands, which f_operands and gu_operands build from the buffers
and which a caller may pass back in. AgentModel.bind_f, bind_gu and
bind_alpha fix the buffers and operands with functools.partial, so a
bound call allocates nothing and still goes through the model's
f_all, add_gu and alpha_all. The integrator binds them once per set of
running members on its own buffers; called without an output, the
same functions fill a fresh array.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class AgentModel:
    """One agent's dynamics, evaluated on stacks of states.

    xs is an (N, n) stack of states, one row per agent, and u holds N
    inputs. f_all(xs, out=None, *operands) writes f(x_i) to row i of
    out and returns out, a fresh array when out is None;
    add_gu(out, xs, u, *operands) adds g(x_i) u_i to row i of out,
    leaving a component whose g is identically 0 alone; and
    alpha_all(xs, out=None) writes alpha(x_i) to out[i] and returns out.
    operands, when given, are f_operands(xs, out) or
    gu_operands(xs, u, out) of the same buffers, and are built on the
    spot otherwise: they hold views of the buffers, so the buffers must
    be float64 arrays changed in place, and an output must not overlap
    an input. jac_f and jac_g act on a single state vector. The input
    is scalar.
    """

    name: str
    state_dim: int
    params: dict
    jac_f: callable
    jac_g: callable
    f_all: callable
    f_operands: callable
    add_gu: callable
    gu_operands: callable
    alpha_all: callable

    def bind_f(self, xs, out):
        """A zero-argument call of f_all on xs into out, its operands built once."""
        return partial(self.f_all, xs, out, *self.f_operands(xs, out))

    def bind_gu(self, xs, u, out):
        """A zero-argument call of add_gu on xs and u into out, its operands built once."""
        return partial(self.add_gu, out, xs, u, *self.gu_operands(xs, u, out))

    def bind_alpha(self, xs, out):
        """A zero-argument call of alpha_all on xs into out."""
        return partial(self.alpha_all, xs, out)

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
        """The input field at x: g u on a zero row with u = 1."""
        out = np.zeros((1, self.state_dim))
        self.add_gu(out, np.asarray(x, dtype=float)[None, :], np.ones(1))
        return out[0]

    def alpha(self, x):
        return float(self.alpha_all(np.asarray(x, dtype=float)[None, :])[0])


def _no_operands(*buffers):
    return ()


def _agent_model(name, n, k, params, drift, input_field, jac_f, jac_g):
    """The AgentModel of one kind on n states, with feedback alpha(x) = k x.

    drift is the kind's (f_all, f_operands) and input_field its
    (add_gu, gu_operands). k is the gain row, of shape (n,) or (1, n);
    params gain its checked copy as "k".
    """
    kv = np.asarray(k, dtype=float)
    if kv.ndim == 2:
        if kv.shape != (1, n):
            raise DimensionMismatchError(
                f"gain has shape {kv.shape}, expected (1, {n})")
        kv = kv[0]
    if kv.shape != (n,):
        raise DimensionMismatchError(f"gain has shape {kv.shape}, expected ({n},)")

    def alpha_all(xs, out=None):
        return xs.dot(kv, out)

    return AgentModel(
        name=name,
        state_dim=n,
        params={**params, "k": kv},
        jac_f=jac_f,
        jac_g=jac_g,
        f_all=drift[0],
        f_operands=drift[1],
        add_gu=input_field[0],
        gu_operands=input_field[1],
        alpha_all=alpha_all,
    )


def _constant_input_model(name, a, b, k, drift, **params):
    """A model with a square drift matrix a and the constant input field g(x) = b.

    b is a vector or a one-column matrix. drift(a) returns the kind's
    (f_all, f_operands) and jac_f on the checked float matrix a.
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
    multiply, add = np.multiply, np.add

    # u as a column, b tiled to every row, and the product's scratch
    def gu_operands(xs, u, out):
        return (np.asarray(u, dtype=float)[:, None], np.tile(bv, (out.shape[0], 1)),
                np.empty(out.shape))

    # out += u[:, None] * b
    def add_gu(out, xs, u, *operands):
        u_col, bs, gu = operands or gu_operands(xs, u, out)
        multiply(u_col, bs, gu)
        add(out, gu, out)

    f_all, jac_f = drift(a)
    return _agent_model(name, n, k, {"a": a, "b": bv, **params}, f_all,
                        (add_gu, gu_operands), jac_f, lambda x: zero)


def _linear_drift(a):
    """(f_all, f_operands) of the drift f(x) = A x, row-wise xs @ A^T."""
    a_t, matmul = a.T, np.matmul

    def f_all(xs, out=None):
        return matmul(xs, a_t, out)

    return f_all, _no_operands


def linear_model(a, b, k):
    """Linear agent: f(x) = A x, constant g = B, alpha(x) = K x."""
    def drift(a):
        return _linear_drift(a), (lambda x: a)

    return _constant_input_model("linear", a, b, k, drift)


def tanh_perturbed_model(a, b, gamma, k):
    """Linear drift plus a saturating componentwise perturbation.

    f(x) = A x + gamma * tanh(x), g = B constant, alpha(x) = K x. The
    Jacobian is A + gamma * diag(sech^2), so the drift never leaves the
    gamma-ball around A: every certificate condition stays checkable by
    a single sampled bound. gamma must be finite and nonnegative.
    """
    if not 0.0 <= gamma < np.inf:
        raise ValueError("gamma must be finite and nonnegative")
    gamma = float(gamma)
    tanh, multiply, add = np.tanh, np.multiply, np.add

    def drift(a):
        linear, _ = _linear_drift(a)

        # gamma in every cell, and the perturbation's scratch
        def f_operands(xs, out):
            return np.full(out.shape, gamma), np.empty(out.shape)

        # A x first, then gamma * tanh(x) added to it
        def f_all(xs, out=None, *operands):
            out = linear(xs, out)
            gammas, perturbation = operands or f_operands(xs, out)
            tanh(xs, perturbation)
            multiply(gammas, perturbation, perturbation)
            add(out, perturbation, out)
            return out

        def jac_f(x):
            sech2 = 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2
            return a + gamma * np.diag(sech2)

        return (f_all, f_operands), jac_f

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

    a, b and c must be finite. The chaotic regime for this drift layout
    is b=28, c=8/3. The gain K is usually designed on
    convective_linearization(a, b, c).
    """
    a, b, c = float(a), float(b), float(c)
    if not np.all(np.isfinite([a, b, c])):
        raise ValueError("a, b and c must be finite")
    subtract, multiply, add, sin = np.subtract, np.multiply, np.add, np.sin

    # the columns of xs and out, and a, b and c for every row
    def f_operands(xs, out):
        return (xs[:, 0], xs[:, 1], xs[:, 2], out[:, 0], out[:, 1], out[:, 2],
                *(np.full(out.shape[0], v) for v in (a, b, c)))

    # each output column written in place; f1 holds x1 x2 until f3 is done
    def f_all(xs, out=None, *operands):
        if out is None:
            xs = np.asarray(xs, dtype=float)
            out = np.empty(xs.shape)
        x1, x2, x3, f1, f2, f3, av, bv, cv = operands or f_operands(xs, out)
        subtract(bv, x3, f2)
        multiply(x1, f2, f2)
        subtract(f2, x2, f2)
        multiply(x1, x2, f1)
        multiply(cv, x3, f3)
        subtract(f1, f3, f3)
        subtract(x2, x1, f1)
        multiply(av, f1, f1)
        return out

    # x1, out's first two columns, 2 for every row and the scratch of g2 u
    def gu_operands(xs, u, out):
        return (np.asarray(xs, dtype=float)[:, 0], out[:, 0], out[:, 1],
                np.full(out.shape[0], 2.0), np.empty(out.shape[0]))

    # u to column 0 and (sin x1 + 2) u to column 1; column 2's g is 0
    def add_gu(out, xs, u, *operands):
        x1, out1, out2, twos, gu = operands or gu_operands(xs, u, out)
        add(out1, u, out1)
        sin(x1, gu)
        add(gu, twos, gu)
        multiply(gu, u, gu)
        add(out2, gu, out2)

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

    return _agent_model("lorenz", 3, k, {"a": a, "b": b, "c": c},
                        (f_all, f_operands), (add_gu, gu_operands), jac_f, jac_g)
