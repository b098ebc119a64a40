import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgesync import (
    DimensionMismatchError,
    convective_linearization,
    linear_model,
    lorenz_model,
    solve_ari,
    tanh_perturbed_model,
)

from helpers import DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, input_field

FD_STEP = 1e-6
LORENZ = (10.0, 8.0 / 3.0, 28.0)


def lorenz_gain(rho, a=10.0, b=8.0 / 3.0, c=28.0):
    """The Riccati gain of the convective loop's origin linearization."""
    return solve_ari(*convective_linearization(a, b, c), rho, 0.5).gain[0]


def fd_jacobian(fn, x, m_out):
    x = np.asarray(x, dtype=float)
    jac = np.zeros((m_out, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = FD_STEP
        jac[:, j] = (fn(x + e) - fn(x - e)) / (2.0 * FD_STEP)
    return jac


bounded_states = st.lists(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False), min_size=3,
    max_size=3).map(np.array)


class TestLinearModel:
    def test_scalar_integrator(self):
        m = linear_model(np.array([[0.0]]), np.array([1.0]), np.array([1.0]))
        assert m.f(np.array([3.0]))[0] == 0.0
        assert m.alpha(np.array([3.0])) == 3.0

    def test_affine_alpha_gradient(self):
        m = linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                         np.array([1.5, 0.5]))
        for x in (np.zeros(2), np.array([2.0, -1.0])):
            grad = fd_jacobian(lambda y: np.array([m.alpha(y)]), x, 1)[0]
            assert np.allclose(grad, [1.5, 0.5], atol=1e-7)

    def test_batched_matches_single(self):
        m = linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                         np.array([1.0, 2.0]))
        xs = np.random.default_rng(0).standard_normal((5, 2))
        for i, x in enumerate(xs):
            assert np.array_equal(m.f_all(xs)[i], m.f(x))
            assert np.array_equal(m.g(x), DOUBLE_INTEGRATOR_B)
            assert m.alpha_all(xs)[i] == m.alpha(x)


class TestTanhModel:
    def test_gamma_zero_is_linear(self):
        k = np.array([1.0, 1.0])
        mt = tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 0.0, k)
        ml = linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, k)
        x = np.array([0.7, -1.3])
        assert np.array_equal(mt.f(x), ml.f(x))

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, -0.1,
                                 np.array([1.0, 1.0]))

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        # nan < 0.0 is False, so a sign test alone would let nan through
        with pytest.raises(ValueError):
            tanh_perturbed_model(np.zeros((2, 2)), [0.0, 1.0], gamma, [1.0, 1.0])

    def test_jacobian_at_origin(self):
        gamma = 0.3
        m = tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, gamma,
                                 np.array([1.0, 1.0]))
        assert np.allclose(m.jac_f(np.zeros(2)),
                           DOUBLE_INTEGRATOR_A + gamma * np.eye(2), atol=1e-12)

    def test_jacobian_deviation_bounded_by_gamma(self):
        gamma = 0.25
        m = tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, gamma,
                                 np.array([1.0, 1.0]))
        rng = np.random.default_rng(2)
        for x in rng.standard_normal((20, 2)) * 3:
            dev = np.max(np.abs(m.jac_f(x) - DOUBLE_INTEGRATOR_A))
            assert dev <= gamma + 1e-12

    def test_jacobian_matches_fd(self):
        m = tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, 0.1,
                                 np.array([1.0, 1.0]))
        x = np.array([0.4, -0.9])
        assert np.allclose(m.jac_f(x), fd_jacobian(m.f, x, 2), atol=1e-8)


class TestLorenzModel:
    def test_drift_equilibrium_at_origin(self):
        m = lorenz_model(*LORENZ, np.zeros(3))
        assert np.array_equal(m.f(np.zeros(3)), np.zeros(3))

    def test_input_field_at_origin(self):
        m = lorenz_model(*LORENZ, np.zeros(3))
        assert np.array_equal(m.g(np.zeros(3)), [1.0, 2.0, 0.0])

    def test_drift_at_ones(self):
        m = lorenz_model(*LORENZ, np.zeros(3))
        assert np.allclose(m.f(np.ones(3)), [0.0, 8.0 / 3.0 - 2.0, -27.0],
                           atol=1e-12)

    @given(bounded_states)
    @settings(max_examples=30, deadline=None)
    def test_jacobians_match_fd(self, x):
        m = lorenz_model(*LORENZ, np.zeros(3))
        assert np.allclose(m.jac_f(x), fd_jacobian(m.f, x, 3),
                           atol=1e-5 * max(1.0, np.max(np.abs(x))))
        assert np.allclose(m.jac_g(x), fd_jacobian(m.g, x, 3), atol=1e-8)

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["a", "b", "c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, index, value):
        abc = list(LORENZ)
        abc[index] = value
        with pytest.raises(ValueError):
            lorenz_model(*abc, np.zeros(3))

    def test_input_field_bounded(self):
        m = lorenz_model(*LORENZ, np.zeros(3))
        rng = np.random.default_rng(1)
        for x in rng.standard_normal((50, 3)) * 20:
            g = m.g(x)
            assert 1.0 <= g[1] <= 3.0
            assert g[0] == 1.0 and g[2] == 0.0


class TestConvectiveLinearization:
    def test_matrices(self):
        a_lin, b_lin = convective_linearization(10.0, 8.0 / 3.0, 28.0)
        assert np.allclose(a_lin, [[-10.0, 10.0, 0.0],
                                   [8.0 / 3.0, -1.0, 0.0],
                                   [0.0, 0.0, -28.0]])
        assert np.array_equal(b_lin, [1.0, 2.0, 0.0])

    def test_matches_model_jacobian_at_origin(self):
        m = lorenz_model(*LORENZ, np.zeros(3))
        a_lin, b_lin = convective_linearization(10.0, 8.0 / 3.0, 28.0)
        assert np.allclose(m.jac_f(np.zeros(3)), a_lin, atol=1e-12)
        assert np.array_equal(m.g(np.zeros(3)), b_lin)


class TestDefaultFeedback:
    def test_gain_oracles(self):
        assert np.allclose(lorenz_gain(10.0), [0.14307232, 0.41272257, 0.0],
                           atol=1e-6)
        assert np.allclose(lorenz_gain(10.0, 10.0, 28.0, 8.0 / 3.0),
                           [1.01149486, 0.82415773, 0.0], atol=1e-6)

    def test_alpha_linear_odd(self):
        m = lorenz_model(*LORENZ, lorenz_gain(10.0))
        x = np.array([1.0, -2.0, 3.0])
        assert m.alpha(np.zeros(3)) == 0.0
        assert m.alpha(-x) == -m.alpha(x)

    def test_scaled_closed_loop_is_hurwitz(self):
        # the design guarantees A - rho b b^T P stable, i.e. beta = rho
        a_lin, b_lin = convective_linearization(*LORENZ)
        closed = a_lin - 10.0 * np.outer(b_lin, lorenz_gain(10.0))
        assert np.max(np.linalg.eigvals(closed).real) < 0

    def test_unit_rho_closed_loop_at_beta_one(self):
        # with rho = 1 the same property reads A - b K at unit gain
        a_lin, b_lin = convective_linearization(*LORENZ)
        closed = a_lin - np.outer(b_lin, lorenz_gain(1.0))
        assert np.max(np.linalg.eigvals(closed).real) < 0

    def test_custom_alpha_passthrough(self):
        k = lorenz_gain(10.0)
        m = lorenz_model(*LORENZ, k)
        x = np.array([0.3, 0.1, -0.2])
        assert m.alpha(x) == float(k @ x)


# argument -> shape of a wrong value for it, on an n-state model
BAD_SHAPES = {
    "a_not_square": ("a", lambda n: (n, n + 1)),
    "b_long": ("b", lambda n: (n + 1,)),
    "b_multicolumn": ("b", lambda n: (n, 2)),
    "k_short": ("k", lambda n: (n - 1,)),
    "k_column": ("k", lambda n: (n, 1)),
    "k_wide_row": ("k", lambda n: (1, n + 1)),
    "k_two_rows": ("k", lambda n: (2, n)),
}
# lorenz takes scalar a, b, c, so only its gain has a shape
SHAPE_CASES = [(kind, case) for kind in ("linear", "tanh", "lorenz")
               for case in BAD_SHAPES if kind != "lorenz" or case.startswith("k_")]


def build_with(kind, **bad):
    """A model of the kind from valid arguments, with those in bad swapped in."""
    args = {"a": DOUBLE_INTEGRATOR_A, "b": DOUBLE_INTEGRATOR_B,
            "k": np.ones(3 if kind == "lorenz" else 2), **bad}
    if kind == "linear":
        return linear_model(args["a"], args["b"], args["k"])
    if kind == "tanh":
        return tanh_perturbed_model(args["a"], args["b"], 0.2, args["k"])
    return lorenz_model(*LORENZ, args["k"])


@pytest.mark.parametrize("kind,case", SHAPE_CASES,
                         ids=[f"{kind}-{case}" for kind, case in SHAPE_CASES])
def test_wrong_shape_rejected(kind, case):
    n = build_with(kind).state_dim
    arg, shape = BAD_SHAPES[case]
    with pytest.raises(DimensionMismatchError):
        build_with(kind, **{arg: np.ones(shape(n))})


def same_bits(a, b):
    """Equal shape and equal IEEE bits: tells -0.0 from 0.0 and NaN payloads apart."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def kernel_stacks(n):
    """A random (40, n) stack and rows of signed zeros, huge and non-finite values."""
    rng = np.random.default_rng(8)
    special = np.array([0.0, -0.0, 1e200, -1e200, np.inf, -np.inf, np.nan])
    rows = [np.resize(np.roll(special, shift), n) for shift in range(special.size)]
    return [rng.standard_normal((40, n)) * 20.0, np.array(rows)]


def batched_models():
    k2 = np.array([1.0, 2.0])
    return {
        "linear": linear_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, k2),
        "tanh": tanh_perturbed_model(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B,
                                     0.2, k2),
        "lorenz": lorenz_model(*LORENZ, np.array([1.0, 0.8, 0.0])),
    }


class TestBatchedKernels:
    """f_all and g against the stacking formulas they replaced."""

    def test_lorenz_matches_column_stack(self):
        a, b, c = LORENZ
        m = lorenz_model(a, b, c, np.zeros(3))
        for xs in kernel_stacks(3):
            x1, x2, x3 = xs[:, 0], xs[:, 1], xs[:, 2]
            with np.errstate(over="ignore", invalid="ignore"):
                f_old = np.column_stack((a * (x2 - x1), x1 * (b - x3) - x2,
                                         x1 * x2 - c * x3))
                g_old = input_field(m, xs)
                f_new, g_new = m.f_all(xs), np.array([m.g(x) for x in xs])
            assert same_bits(f_new, f_old)
            assert same_bits(g_new, g_old)

    @pytest.mark.parametrize("kind", ["linear", "tanh"])
    def test_constant_input_field_matches_broadcast(self, kind):
        m = batched_models()[kind]
        for xs in kernel_stacks(2):
            assert same_bits(np.array([m.g(x) for x in xs]), input_field(m, xs))

    @pytest.mark.parametrize("kind", ["linear", "tanh", "lorenz"])
    def test_fields_return_fresh_writable_arrays(self, kind):
        # the integrator accumulates the stage derivative in these arrays
        m = batched_models()[kind]
        xs = np.random.default_rng(3).standard_normal((6, m.state_dim))
        u = np.arange(6.0)
        for field in (m.f_all, lambda xs: m.field_all(xs, u)):
            out, again = field(xs), field(xs)
            assert out.shape == xs.shape and out.dtype == np.float64
            assert out.flags.c_contiguous and out.flags.writeable
            assert not np.shares_memory(out, xs)
            assert not np.shares_memory(out, again)


class BoundKernels:
    """A model's three kernels bound once to buffers for `rows` agents."""

    def __init__(self, model, rows):
        n = model.state_dim
        self.xs, self.u = np.empty((rows, n)), np.empty(rows)
        self.field, self.alphas = np.empty((rows, n)), np.empty(rows)
        self.drift = model.bind_f(self.xs, self.field)
        self.add_gu = model.bind_gu(self.xs, self.u, self.field)
        self.alpha = model.bind_alpha(self.xs, self.alphas)

    def run(self, xs, u):
        """Load xs and u in place and run the kernels: (f, f + g u, alpha)."""
        self.xs[...], self.u[...] = xs, u
        self.drift()
        drift = self.field.copy()
        self.add_gu()
        self.alpha()
        return drift, self.field.copy(), self.alphas.copy()


def kernel_inputs(rows):
    """Inputs u with the signed zeros and non-finite values of kernel_stacks."""
    return np.resize([1.5, -0.0, np.inf, np.nan, -2.0, 0.0, 1e200, -np.inf], rows)


class TestBoundKernels:
    """Kernels bound once to buffers against the wrappers on fresh arrays."""

    @pytest.mark.parametrize("kind", ["linear", "tanh", "lorenz"])
    def test_kernels_match_wrappers(self, kind):
        m = batched_models()[kind]
        with np.errstate(over="ignore", invalid="ignore"):
            for xs in kernel_stacks(m.state_dim):
                u = kernel_inputs(len(xs))
                drift, field, alphas = BoundKernels(m, len(xs)).run(xs, u)
                assert same_bits(drift, m.f_all(xs))
                assert same_bits(field, m.field_all(xs, u))
                assert same_bits(alphas, m.alpha_all(xs))

    @pytest.mark.parametrize("kind", ["linear", "tanh", "lorenz"])
    def test_kernels_read_their_buffers_when_called(self, kind):
        # overwriting the buffers in place, with no rebinding, is enough
        m = batched_models()[kind]
        random, special = kernel_stacks(m.state_dim)
        kernels = BoundKernels(m, len(special))
        with np.errstate(over="ignore", invalid="ignore"):
            for xs in (special, random[:len(special)], special):
                u = kernel_inputs(len(xs))[::-1]
                drift, field, alphas = kernels.run(xs, u)
                assert same_bits(drift, m.f_all(xs))
                assert same_bits(field, m.field_all(xs, u))
                assert same_bits(alphas, m.alpha_all(xs))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def stacks_and_inputs(draw, n):
    """An (N, n) stack of finite states and N finite inputs, N from 1 to 8."""
    rows = draw(st.integers(min_value=1, max_value=8))
    return (draw(arrays(np.float64, (rows, n), elements=finite)),
            draw(arrays(np.float64, rows, elements=finite)))


SIGNED_ZEROS = (np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]), np.array([-0.0, 0.0]))


class TestFieldAll:
    """field_all(xs, u) has the bits of f_all(xs) + g(xs) * u[:, None], g in closed form."""

    @pytest.mark.parametrize("kind", ["linear", "tanh"])
    @given(data=stacks_and_inputs(2))
    @example(data=(SIGNED_ZEROS[0][:, :2], SIGNED_ZEROS[1]))
    @settings(max_examples=200, deadline=None)
    def test_constant_input_field(self, kind, data):
        xs, u = data
        m = batched_models()[kind]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = m.f_all(xs) + input_field(m, xs) * u[:, None]
            assert same_bits(m.field_all(xs, u), expected)

    @given(data=stacks_and_inputs(3))
    @example(data=SIGNED_ZEROS)
    @settings(max_examples=200, deadline=None)
    def test_lorenz(self, data):
        xs, u = data
        m = batched_models()["lorenz"]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = m.f_all(xs) + input_field(m, xs) * u[:, None]
            out = m.field_all(xs, u)
            drift = m.f_all(xs)
        assert same_bits(out[:, :2], expected[:, :2])
        # g is 0 in column 2, so field_all leaves the drift there alone.
        # 0*u + f2 can differ from f2 in the sign of a zero (+0 + -0 is
        # +0), so that column equals the sum only as a number.
        assert same_bits(out[:, 2], drift[:, 2])
        assert np.array_equal(out[:, 2], expected[:, 2], equal_nan=True)

    @pytest.mark.parametrize("kind", ["linear", "tanh", "lorenz"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_alpha_is_matmul(self, kind, data):
        m = batched_models()[kind]
        xs, _ = data.draw(stacks_and_inputs(m.state_dim))
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(m.alpha_all(xs), xs @ m.params["k"])
