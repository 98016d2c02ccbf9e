import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from klab.core import (
    BLOCK_SHELLS,
    BoundaryProximity,
    ConvergenceBudgetExceeded,
    DEFAULT_BUDGET,
    DomainError,
    Modulus,
    PoleProximity,
    SummationBudget,
    TWO_PI_I,
    alpha,
    appell_lerch_sum,
    dist_to_integers,
    e_of,
    lattice_sum,
    shell_block,
)
from klab.cli import EVAL_FUNCTIONS


class TestEOf:
    def test_zero(self):
        assert e_of(0) == 1

    def test_half_period(self):
        assert abs(e_of(0.5) + 1) < 1e-15

    def test_imaginary_unit(self):
        assert abs(e_of(1j) - math.exp(-2 * math.pi)) < 1e-18
        assert abs(e_of(1j) - 1.8674e-3) < 1e-6

    @given(st.floats(-50, 50, allow_nan=False))
    def test_unit_modulus_on_reals(self, x):
        assert abs(abs(e_of(x)) - 1) < 1e-12

    @given(
        st.complex_numbers(
            max_magnitude=30, allow_nan=False, allow_infinity=False
        ).filter(lambda z: abs(z.imag) < 20)
    )
    def test_period_one(self, z):
        assert abs(e_of(z + 1) - e_of(z)) <= 1e-12 * (1 + abs(e_of(z)))


class TestAlpha:
    def test_linear_combination(self, tau_i, tau_generic):
        for tau in (tau_i, tau_generic):
            assert abs(alpha(0.7 * tau.tau + 3.2, tau) - 0.7) < 1e-12

    def test_real_argument(self, tau_generic):
        assert alpha(5, tau_generic) == 0

    def test_tau_itself(self, tau_generic):
        assert abs(alpha(tau_generic.tau, tau_generic) - 1) < 1e-15

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_additivity(self, a, b):
        tau = Modulus(0.3 + 0.9j)
        z, w = a * tau.tau + 0.1, b * tau.tau - 0.7
        assert abs(alpha(z + w, tau) - alpha(z, tau) - alpha(w, tau)) < 1e-10


class TestDistToIntegers:
    @pytest.mark.parametrize(
        "x, want", [(0.0, 0.0), (0.5, 0.5), (2.3, 0.3), (-0.25, 0.25)]
    )
    def test_examples(self, x, want):
        assert abs(dist_to_integers(x) - want) < 1e-12

    @given(st.floats(-100, 100, allow_nan=False))
    def test_range(self, x):
        d = dist_to_integers(x)
        assert 0 <= d <= 0.5


class TestModulus:
    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            Modulus(-1j)
        with pytest.raises(DomainError):
            Modulus(1.0)

    def test_nome_and_half_period(self, tau_i):
        assert abs(tau_i.q - math.exp(-2 * math.pi)) < 1e-15
        assert tau_i.xi == (1j + 1) / 2

    def test_scaled(self, tau_i):
        assert Modulus(2j).tau == tau_i.scaled(2).tau
        with pytest.raises(DomainError):
            tau_i.scaled(0)


class TestSummationBudget:
    def test_validation(self):
        with pytest.raises(DomainError):
            SummationBudget(target_tol=0)
        with pytest.raises(DomainError):
            SummationBudget(max_shell=0)
        with pytest.raises(DomainError):
            SummationBudget(stall_shells=0)


def shells(dim, radius):
    """The shells 0..radius of Z^dim as tuples, read off the kernel's blocks."""
    out = []
    for block in range(radius // BLOCK_SHELLS + 1):
        k, starts, sizes = shell_block(dim, block)
        pts = list(zip(*(c.tolist() for c in k)))
        out += [pts[a : a + size] for a, size in zip(starts, sizes)]
    return out[: radius + 1]


def loop_sum(term, budget=DEFAULT_BUDGET):
    """Reference for lattice_sum on Z: one term and one shell at a time, the
    same stop rule (stalls count from the first shell that meets the cone)."""
    total, stall, seen = 0j, 0, False
    for radius in range(budget.max_shell + 1):
        shell_sum = 0j
        for n in ((0,) if radius == 0 else (-radius, radius)):
            value, in_cone = term(n)
            seen = seen or in_cone
            shell_sum += value
        total += shell_sum
        if abs(shell_sum) >= budget.target_tol:
            stall = 0
        elif seen:
            stall += 1
            if stall >= budget.stall_shells:
                return total, radius
    raise ConvergenceBudgetExceeded("reference loop hit the cap")


class TestShellPoints:
    def test_radius_zero(self):
        assert shells(1, 0) == [[(0,)]]
        assert shells(2, 0) == [[(0, 0)]]

    def test_counts(self):
        # sup-norm shell in 2-D has 8r points for r > 0
        got = shells(2, 2 * BLOCK_SHELLS + 1)
        for r in (1, 2, 5, BLOCK_SHELLS, 2 * BLOCK_SHELLS + 1):
            assert len(got[r]) == 8 * r
            assert all(max(abs(i) for i in p) == r for p in got[r])

    def test_deterministic_sorted(self):
        for pts in shells(2, BLOCK_SHELLS + 3):
            assert pts == sorted(pts)
        assert shells(1, 3) == [[(0,)], [(-1,), (1,)], [(-2,), (2,)], [(-3,), (3,)]]


class TestSumByShells:
    def test_geometric(self):
        q = cmath.exp(-2 * math.pi)

        def term(n):
            cone = n >= 0
            return np.where(cone, q ** np.abs(n), 0.0), cone, None

        got, trace = lattice_sum(term, 1)
        assert abs(got - 1 / (1 - q)) < 1e-12
        assert trace.terms == 2 * trace.shells + 1
        assert trace.terms_in_cone == trace.shells + 1

    def test_all_zero(self):
        got, trace = lattice_sum(lambda n: (np.zeros(len(n)), None, None), 1)
        assert got == 0
        assert trace.shells == DEFAULT_BUDGET.stall_shells - 1

    def test_divergent_raises(self):
        with pytest.raises(ConvergenceBudgetExceeded):
            lattice_sum(
                lambda n: (np.ones(len(n)), None, None), 1, SummationBudget(max_shell=10)
            )

    def test_budget_tightening_stable(self):
        q = cmath.exp(-2 * math.pi)

        def term(n):
            return q ** (n * n), None, None

        loose = lattice_sum(term, 1, SummationBudget(target_tol=1e-10))[0]
        tight = lattice_sum(term, 1, SummationBudget(target_tol=5e-11))[0]
        assert abs(loose - tight) < 1e-10

    @pytest.mark.parametrize(
        "start", [0, 3, BLOCK_SHELLS - 1, BLOCK_SHELLS, 3 * BLOCK_SHELLS + 2]
    )
    @pytest.mark.parametrize("decay", [0.3, 0.05])
    def test_matches_loop_reference(self, start, decay):
        # terms vanish outside the cone n >= start, so the cone is met late
        def value(n):
            return cmath.exp(-decay * (n - start) ** 2 + 0.7j * n) if n >= start else 0j

        def term(n):
            cone = n >= start
            return np.array([value(i) for i in n.tolist()]), cone, None

        want, radius = loop_sum(lambda n: (value(n), n >= start))
        got, trace = lattice_sum(term, 1)
        assert got == want
        assert trace.shells == radius
        assert trace.terms == 2 * radius + 1
        assert trace.terms_in_cone == radius - start + 1

    def test_cone_met_late_is_not_a_stall(self):
        # the first cone point is at radius 12: empty shells before it must
        # not stop the sum at zero
        def term(m, n):
            cone = (m >= 12) & (n == 0)
            return np.where(cone, np.exp(-(m - 12.0)), 0.0), cone, None

        got, trace = lattice_sum(term, 2)
        assert abs(got - 1 / (1 - math.exp(-1))) < 1e-11
        assert trace.terms_in_cone == trace.shells - 11

    def test_boundary_only_in_consumed_shells(self):
        def term_near(radius):
            def term(n):
                return np.exp(-5.0 * n * n), None, np.abs(n) == radius
            return term

        _, trace = lattice_sum(term_near(BLOCK_SHELLS - 1), 1)
        assert trace.shells < BLOCK_SHELLS - 1
        with pytest.raises(BoundaryProximity):
            lattice_sum(term_near(1), 1)

    def test_error_keeps_no_block_arrays(self):
        # a caught error must not pin block-sized arrays through its traceback
        def term(n):
            return np.ones(len(n), complex), None, None

        with pytest.raises(ConvergenceBudgetExceeded) as info:
            lattice_sum(term, 1, SummationBudget(max_shell=10))
        tb = info.value.__traceback__
        while tb is not None:
            assert not any(isinstance(v, np.ndarray) for v in tb.tb_frame.f_locals.values())
            tb = tb.tb_next

    def test_trace_list(self):
        traces = []
        _, trace = lattice_sum(lambda n: (np.exp(-1.0 * n * n), None, None), 1, trace=traces)
        assert traces == [trace]


class TestAppellLerchSum:
    @staticmethod
    def box_sum(quad, lin, c, n_shift, tau, radius=80):
        """sign(u) e(quad m^2 + lin m + n (m tau + c)) summed over the cone
        u v > 0 in the box |m|, |n| <= radius, term by term."""
        m, n = np.meshgrid(np.arange(-radius, radius + 1), np.arange(-radius, radius + 1))
        u, v = m + alpha(c, tau), n + n_shift
        cone = u * v > 0
        m, n, u = m[cone], n[cone], u[cone]
        return complex(np.sum(np.sign(u) * np.exp(
            TWO_PI_I * (quad * m * m + lin * m + n * (m * tau.tau + c)))))

    def test_matches_box_sum(self):
        # Gaussian in m, with the linear coefficient free: the peak can sit
        # at the vertex of either quadratic piece, far from the cone boundary
        rng = random.Random(5)
        for im in (1.0, 2.0):
            tau = Modulus(complex(rng.uniform(-0.5, 0.5), im))
            for _ in range(15):
                a_c = rng.choice([-1, 1]) * rng.uniform(0.1, 0.4) + rng.randint(-3, 3)
                n_shift = rng.choice([-1, 1]) * rng.uniform(0.1, 0.4) + rng.randint(-3, 3)
                c = a_c * tau.tau + rng.random()
                lin = complex(rng.uniform(-1, 1), rng.uniform(-4, 4) * im)
                want = self.box_sum(tau.tau / 2, lin, c, n_shift, tau)
                got = appell_lerch_sum(tau.tau / 2, lin, c, n_shift, tau)
                assert abs(got - want) <= 1e-9 * abs(want) + 1e-12

    def test_matches_box_sum_without_quadratic_term(self):
        # f's form: the sum over m converges only with Im(lin) = n_shift Im(tau)
        rng = random.Random(6)
        tau = Modulus(0.2 + 1.3j)
        for _ in range(15):
            a_c = rng.uniform(0.25, 0.75) + rng.randint(-2, 2)
            n_shift = rng.uniform(0.1, 0.9) + rng.randint(-2, 1)
            c = a_c * tau.tau + rng.random()
            lin = n_shift * tau.tau + rng.random()
            want = self.box_sum(0, lin, c, n_shift, tau)
            got = appell_lerch_sum(0, lin, c, n_shift, tau)
            assert abs(got - want) <= 1e-9 * abs(want) + 1e-12

    @pytest.mark.parametrize("a_c, n_shift", [(2.0, 0.3), (0.3, -1.0), (1 - 1e-10, 0.3)])
    def test_integer_shift_is_a_pole(self, a_c, n_shift):
        tau = Modulus(1j)
        with pytest.raises(PoleProximity):
            appell_lerch_sum(0.5j, 0.1, a_c * tau.tau + 0.2, n_shift, tau)


@settings(max_examples=25)
@given(st.integers(1, 2 * BLOCK_SHELLS + 2))
def test_shell_union_is_box(r):
    seen = set()
    for pts in shells(2, r):
        assert not (seen & set(pts))
        seen |= set(pts)
    assert len(seen) == (2 * r + 1) ** 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(EVAL_FUNCTIONS))
def test_non_finite_argument_raises_domain_error(name, bad, part):
    # in each argument in turn, the others finite and admissible
    fn, flags = EVAL_FUNCTIONS[name]
    tau = Modulus(0.3 + 0.9j)
    for i in range(len(flags)):
        args = [0.2 + 0.35j, 0.7 + 0.55j][: len(flags)]
        args[i] = complex(bad, 0.3) if part == "real" else complex(0.3, bad)
        with pytest.raises(DomainError):
            fn(*args, tau)
