import cmath
import importlib
import inspect
import itertools
import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from klab.core import (
    BoundaryProximity,
    ConvergenceBudgetExceeded,
    DEFAULT_BUDGET,
    DomainError,
    Envelope,
    Modulus,
    PoleProximity,
    Series1D,
    SummationBudget,
    TWO_PI_I,
    _expm1,
    alpha,
    appell_record,
    dist_to_integers,
    e_of,
    lattice_sum,
    lerch_record,
)
import klab
from klab import core
from klab.appell import _g_record, g0, g_series, kappa
from klab.cli import EVAL_FUNCTIONS
from klab.kronecker import _f_record, f_series
from klab.theta import _theta_record, theta, theta_prime

from conftest import kernel_calls
from five_term_reference import theta_slope_coefficient


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

    @pytest.mark.parametrize("z", [1e308, 1e308 + 1j, -1e308 - 0.5j])
    def test_infinite_phase_is_a_domain_error(self, z):
        # cmath.exp raises ValueError, not OverflowError, at an infinite phase
        with pytest.raises(DomainError, match="overflows"):
            e_of(z)


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

    @pytest.mark.parametrize("tau", [complex(math.nan, 1), 1j * math.inf, complex(math.inf, 1)])
    def test_rejects_non_finite(self, tau):
        # at tau = i inf, f_closed and kappa raised an untyped ValueError
        with pytest.raises(DomainError, match="finite point"):
            Modulus(tau)

    @pytest.mark.parametrize("tau", [1e308 + 1j, -1e308 + 0.5j])
    def test_rejects_a_nome_past_the_float_range(self, tau):
        # 2 pi Re(tau) is infinite: suites at this tau skipped every point
        with pytest.raises(DomainError, match="nome"):
            Modulus(tau)
        assert abs(Modulus(tau / 100).q) <= 1 and Modulus(1e308j).q == 0

    def test_scaled(self, tau_i):
        assert Modulus(2j).tau == tau_i.scaled(2).tau
        assert tau_i.scaled(2) is tau_i.scaled(2)  # made once
        with pytest.raises(DomainError):
            tau_i.scaled(0)


class TestSummationBudget:
    def test_validation(self):
        with pytest.raises(DomainError):
            SummationBudget(target_tol=0)
        with pytest.raises(DomainError):
            SummationBudget(max_shell=0)
        # a tolerance and a radius cap, nothing else
        with pytest.raises(TypeError):
            SummationBudget(stall_shells=2)


#: Envelope of exp(-decay k^2) about its peak at k = 0: exp(-decay j^2).
def gaussian(decay, slack=0.0):
    return Envelope(slack, decay, 0.0, 0.0)


def gapped_value(n, decay=0.5, gap=3):
    """exp(-decay n^2) for |n| >= gap, 0 below: its largest term is far below
    the top of its Envelope gaussian(decay), which still bounds it."""
    return math.exp(-decay * n * n) if abs(n) >= gap else 0.0


def gapped(k, decay=0.5, gap=3):
    """``gapped_value`` as a numpy term."""
    return np.where(np.abs(k) >= gap, np.exp(-decay * k * k), 0.0) + 0j, None, None


class Single:
    """A single series as ``lattice_sum`` takes it, from a numpy term: its
    terms as Python complex numbers (``short_terms``) and their cone count."""

    def __init__(self, term):
        self.term = term

    def short_terms(self, radius):
        values, cone, _ = self.term(np.arange(-radius, radius + 1))
        return ([complex(v) for v in values.tolist()],
                2 * radius + 1 if cone is None else int(np.count_nonzero(cone)))


def traced(term, env, budget=DEFAULT_BUDGET):
    """``lattice_sum`` of a single series and its SeriesTrace, from a ``trace`` list."""
    traces = []
    value = lattice_sum(term, env, budget, traces)
    (trace,) = traces
    return value, trace


def stack(envs):
    """The stacked Envelope of a batch from its series' Envelopes: ``top`` an
    array, and each other field one number where all share it (as every
    set-up gives ``curv``), else an array."""
    *fields, top = zip(*envs)
    return Envelope(*(f[0] if len(set(f)) == 1 else np.array(f) for f in fields), np.array(top))


def batch(term, envs, budget=DEFAULT_BUDGET):
    """``lattice_sum`` of a batch of series with Envelopes ``envs``, stacked:
    the list of sums and, from a ``trace`` list, their SeriesTraces."""
    traces = []
    values = lattice_sum(term, stack(envs), budget, traces)
    return values, traces


def loop_sum(value, radius):
    """Reference for lattice_sum on Z: the box |n| <= radius, one term at a time."""
    return sum((value(n) for n in range(-radius, radius + 1)), 0j)


class TestBox:
    @pytest.mark.parametrize("decay", [0.5, 0.005])
    @pytest.mark.parametrize("size", [None, 3, 20])
    def test_term_gets_the_box_and_the_ring_is_its_ends(self, decay, size):
        # a single series, a batch certified series by series and one
        # certified on arrays: the term is called on k = arange(-R, R + 1),
        # and each trace's ring is (|t(-R)| + |t(R)|) / largest, bit for bit,
        # also at a radius above 64; |t(-k)| = |t(k)| / 2 tells the ends apart
        rows = size or 1
        decays, phases = decay * np.linspace(1, 1.2, rows), np.linspace(0.1, 0.7, rows)
        calls = []

        def term(k, members=slice(None)):
            values = (np.exp((1j - decays[members, None]) * k * k + 1j * phases[members, None] * k)
                      * np.where(k < 0, 0.5, 1.0))
            calls.append((k, values))
            return values, None, None

        traces = []
        if size is None:
            lattice_sum(Single(lambda k: (term(k)[0][0], None, None)), gaussian(decay), trace=traces)
            moduli = [list(map(abs, map(complex, calls[-1][1][0].tolist())))]
        else:
            lattice_sum(term, Envelope(0.0, decays, 0.0, np.zeros(rows)), trace=traces)
            moduli = np.abs(calls[-1][1]).tolist()
        k, radius = calls[-1][0], traces[0].radius
        assert radius > 64 if decay < 0.01 else radius < 64
        assert len(calls) == 1 and k.dtype.kind == "i"
        assert k.tolist() == list(range(-radius, radius + 1))
        assert [t.radius for t in traces] == [radius] * rows
        assert [t.ring for t in traces] == [(m[0] + m[-1]) / max(m) for m in moduli]


class TestSumByShells:
    def test_geometric(self):
        q = math.exp(-2 * math.pi)

        def term(n):
            cone = n >= 0
            return np.where(cone, q ** np.abs(n), 0.0), cone, None

        got, trace = traced(Single(term), Envelope(0.0, 0.0, 2 * math.pi, 0.0))
        assert abs(got - 1 / (1 - q)) < 1e-12
        assert trace.terms == 2 * trace.radius + 1
        assert trace.terms_in_cone == trace.radius + 1
        # e^(-2 pi R) times the geometric factor is below 1e-12 first at R = 5
        assert trace.radius == 5 and trace.stop == "tail bound"
        assert trace.ring == q ** 5

    def test_all_zero(self):
        # no term to measure the tail against: no silent 0j
        with pytest.raises(ConvergenceBudgetExceeded, match="needs truncation radius inf"):
            lattice_sum(Single(lambda n: (np.zeros(len(n)), None, None)), gaussian(1.0))

    def test_all_zero_below_the_float_range(self):
        # terms that all round to 0 where the envelope puts the largest near
        # e^-1700 underflowed: the underflow error, not an infinite radius
        with pytest.raises(DomainError, match="normal float range"):
            lattice_sum(Single(lambda n: (np.zeros(len(n)), None, None)),
                        Envelope(-1700.0, 1.0, 0.0, -1700.0))

    def test_divergent_raises(self):
        # terms that break their envelope fail the ring check twice
        with pytest.raises(ConvergenceBudgetExceeded, match="outer ring at radius"):
            lattice_sum(Single(lambda n: (np.ones(len(n)), None, None)), gaussian(1.0))
        # an envelope without decay needs an infinite radius
        with pytest.raises(ConvergenceBudgetExceeded, match="inf"):
            lattice_sum(Single(lambda n: (np.ones(len(n)), None, None)),
                        Envelope(0.0, 0.0, 0.0, 0.0))

    def test_subnormal_largest_term_raises(self):
        # below the normal float range the terms keep only a few digits
        scale = 1e-320

        def term(n):
            return scale * np.exp(-(n * n) * 1.0), None, None

        log_scale = math.log(scale)
        with pytest.raises(DomainError, match="normal float range"):
            lattice_sum(Single(term), Envelope(log_scale, 1.0, 0.0, log_scale))
        # the same sum a normal-range factor higher returns
        scale = 1e-300
        lattice_sum(Single(term), Envelope(math.log(scale), 1.0, 0.0, math.log(scale)))

    def test_budget_tightening_stable(self):
        q = cmath.exp(-2 * math.pi)

        def term(n):
            return q ** (n * n), None, None

        env = gaussian(2 * math.pi)
        loose = lattice_sum(Single(term), env, SummationBudget(target_tol=1e-10))
        tight = lattice_sum(Single(term), env, SummationBudget(target_tol=5e-11))
        assert abs(loose - tight) < 1e-10

    @pytest.mark.parametrize("start", [0, 3, 7, 8, 26])
    @pytest.mark.parametrize("decay", [0.3, 0.05])
    def test_matches_loop_reference(self, start, decay):
        # terms vanish outside the cone n >= start and peak at its edge; the
        # envelope exp(decay (start^2 - j^2 + 2 start j)) carries R past start
        def value(n):
            return cmath.exp(-decay * (n - start) ** 2 + 0.7j * n) if n >= start else 0j

        def term(n):
            cone = n >= start
            return np.array([value(i) for i in n.tolist()]), cone, None

        env = Envelope(decay * start * start, decay, -2 * decay * start, 0.0)
        got, trace = traced(Single(term), env)
        radius = trace.radius
        assert abs(got - loop_sum(value, radius)) <= 1e-15 * abs(got)
        # the certificate: the terms past R add below target_tol of the largest
        assert abs(loop_sum(value, 4 * radius) - got) <= DEFAULT_BUDGET.target_tol
        assert trace.ring < DEFAULT_BUDGET.target_tol
        assert trace.terms == 2 * radius + 1
        assert trace.terms_in_cone == radius - start + 1

    def test_cone_met_late_is_not_a_stall(self):
        # the first cone point is at radius 12: the envelope's slack carries
        # R past the empty indices before it, so the sum does not stop at zero
        def term(m):
            cone = m >= 12
            return np.where(cone, np.exp(-(m - 12.0)), 0.0), cone, None

        got, trace = traced(Single(term), Envelope(12.0, 0.0, 1.0, 0.0))
        assert abs(got - 1 / (1 - math.exp(-1))) < 1e-11
        assert trace.terms_in_cone == trace.radius - 11

    def test_boundary_only_in_consumed_shells(self):
        # only a numpy term reports indices near the cone boundary: a one-row batch
        def term_near(radius):
            def term(n):
                return np.exp(-5.0 * n * n), None, np.abs(n) == radius
            return stacked(term)

        _, (trace,) = batch(term_near(7), [gaussian(5.0)])
        assert trace.radius < 7
        with pytest.raises(BoundaryProximity):
            lattice_sum(term_near(1), stack([gaussian(5.0)]))

    def test_error_keeps_no_block_arrays(self):
        # a caught error must not pin box-sized arrays through its traceback,
        # here of a numpy term (a one-row batch)
        def term(n):
            return np.ones(len(n), complex), None, None

        with pytest.raises(ConvergenceBudgetExceeded) as info:
            lattice_sum(stacked(term), stack([gaussian(1.0)]), SummationBudget(max_shell=10))
        tb = info.value.__traceback__
        while tb is not None:
            assert not any(isinstance(v, np.ndarray) for v in tb.tb_frame.f_locals.values())
            tb = tb.tb_next

    def test_trace_list(self):
        # the sum is returned alone, and its one SeriesTrace goes to a trace list
        series, traces = Single(lambda n: (np.exp(-1.0 * n * n), None, None)), []
        value = lattice_sum(series, gaussian(1.0), trace=traces)
        assert type(value) is complex and value == lattice_sum(series, gaussian(1.0))
        assert [type(t) for t in traces] == [core.SeriesTrace]
        # a batch's sums are a list, with one SeriesTrace per series
        values, traces = batch(stacked(series.term, series.term), [gaussian(1.0)] * 2)
        assert values == [value] * 2 and [type(t) for t in traces] == [core.SeriesTrace] * 2

    def test_ring_check_redoes_once_at_the_asked_radius(self):
        # no term below |n| = 3, so the largest is e^-4.5 below the
        # envelope's top: the outer ring at R = 8 holds more than target_tol
        # of it, and the certificate asks for the radius of that slack, 9,
        # not 2R; the trace reports the radius summed
        got, trace = traced(Single(gapped), gaussian(0.5))
        assert (trace.radius, trace.stop, trace.terms) == (9, "ring check", 19)
        assert abs(got - loop_sum(gapped_value, 40)) <= 1e-15 * abs(got)
        # terms that decay at half their envelope's rate fail it again at 9
        with pytest.raises(ConvergenceBudgetExceeded, match="outer ring at radius 9 "):
            lattice_sum(Single(lambda n: (np.exp(-0.25 * n * n), None, None)), gaussian(0.5))

    def test_radius_beyond_max_shell_is_named(self):
        env = Envelope(0.0, 0.0, 0.01, 0.0)  # geometric: R near 2,900 at 1e-12
        series = Single(lambda n: (np.exp(-0.01 * np.abs(n)), None, None))
        with pytest.raises(ConvergenceBudgetExceeded, match=r"needs truncation radius (\d+) > 2048"):
            lattice_sum(series, env)
        got, trace = traced(series, env, SummationBudget(max_shell=4096))
        assert 2048 < trace.radius <= 4096


def stacked(*terms):
    """A batch term from single-series terms: their values and cone masks
    stacked on a leading axis, and their boundary masks likewise; ``members``
    selects the series."""
    def term(*k, members=range(len(terms))):
        parts = [terms[i](*k) for i in members]
        cones = [c for _, c, _ in parts]
        nears = [n for _, _, n in parts]
        cone = None if all(c is None for c in cones) else np.stack(
            [np.ones_like(k[0], bool) if c is None else c for c in cones])
        near = None if all(n is None for n in nears) else np.stack(
            [np.zeros_like(k[0], bool) if n is None else n for n in nears])
        return np.stack([v for v, _, _ in parts]), cone, near
    return term


def alone(term, env, budget=DEFAULT_BUDGET):
    """``lattice_sum`` of a single-series numpy term as a one-row batch: a
    batch member's sum and trace, bit for bit, had it been summed alone."""
    (value,), (trace,) = batch(stacked(term), [env], budget)
    return value, trace


def shifted_gaussian(decay, centre, phase, scale=1.0):
    """(term, envelope, value) of scale exp(-decay (n - centre)^2 + i phase n)
    on Z, whose log-modulus is below -decay j^2 + 2 decay |centre| j."""
    def value(n):
        return scale * cmath.exp(-decay * (n - centre) ** 2 + 1j * phase * n)

    def term(k):
        return scale * np.exp(-decay * (k - centre) ** 2 + 1j * phase * k), None, None

    log_scale = math.log(scale)
    top = log_scale - decay * max(abs(centre) - 1, 0) ** 2
    return term, Envelope(log_scale, decay, -2 * decay * abs(centre), top), value


class TestBatch:
    def test_members_match_their_sums_alone(self):
        members = [shifted_gaussian(1.0, 0, 0.3), shifted_gaussian(0.05, 2, -0.7),
                   shifted_gaussian(0.4, -1, 1.1, scale=3.0)]
        sums_alone = [alone(term, env) for term, env, _ in members]
        got, traces = batch(stacked(*(m[0] for m in members)), [env for _, env, _ in members])
        # one box at the largest of the members' own radii, one trace each
        radius = max(trace.radius for _, trace in sums_alone)
        assert len(traces) == len(members)
        assert {(t.radius, t.terms, t.terms_in_cone, t.stop) for t in traces} == {
            (radius, 2 * radius + 1, 2 * radius + 1, "tail bound")}
        for (_, _, value), (alone_sum, alone_trace), sum_, trace in zip(members, sums_alone, got,
                                                                         traces):
            assert abs(sum_ - loop_sum(value, radius)) <= 1e-15 * abs(sum_)
            assert trace.ring < DEFAULT_BUDGET.target_tol
            if alone_trace.radius == radius:
                assert abs(sum_ - alone_sum) <= 1e-15 * abs(alone_sum)
                assert trace.ring == alone_trace.ring

    def test_tiny_member_is_certified_against_its_own_largest_term(self):
        # the tiny member's outer ring at R = 8 holds about 2e-12 of its own
        # largest term, though only 1e-26 of the other member's, so the batch
        # is redone at the radius it asks for, 9
        def tiny(k):
            values, _, _ = gapped(k)
            return 1e-12 * values, None, None

        tiny_env = Envelope(math.log(1e-12), 0.5, 0.0, math.log(1e-12))
        big_term, big_env, _ = shifted_gaussian(1.0, 0, 0.0)
        got, traces = batch(stacked(big_term, tiny), [big_env, tiny_env])
        sum_alone, trace_alone = traced(Single(tiny), tiny_env)
        assert trace_alone[:2] == (9, 19) and trace_alone.stop == "ring check"
        assert traces[1] == trace_alone
        assert abs(got[1] - sum_alone) <= 1e-15 * abs(sum_alone)

    def test_ring_failure_in_one_member_redoes_the_batch(self):
        fast_term, fast_env, fast_value = shifted_gaussian(1.0, 0, 0.5)
        got, traces = batch(stacked(fast_term, gapped), [fast_env, gaussian(0.5)])
        assert [(t.radius, t.stop) for t in traces] == [(9, "ring check")] * 2
        assert abs(got[0] - loop_sum(fast_value, 9)) <= 1e-15 * abs(got[0])
        assert abs(got[1] - loop_sum(gapped_value, 40)) <= 1e-15 * abs(got[1])

    def test_batch_beyond_one_box_is_summed_in_groups(self):
        # at max_shell 10 one box holds 21 indices; the three series need 17
        # each at the radius 8 of the widest, so they go in two groups
        members = [shifted_gaussian(0.5, 0, 0.2), shifted_gaussian(4.0, 0, 0.4),
                   shifted_gaussian(3.5, 0, -0.3)]
        budget = SummationBudget(max_shell=10)
        got, traces = batch(stacked(*(m[0] for m in members)), [env for _, env, _ in members],
                            budget)
        sums_alone = [alone(term, env, budget) for term, env, _ in members]
        assert traces == [trace for _, trace in sums_alone]
        assert [t.radius for t in traces] == [8, 3, 3]
        assert got == [value for value, _ in sums_alone]

    def test_redo_comes_before_underflow(self):
        # the first member's largest term underflows, the second breaks its
        # envelope and fails the ring check twice: that is the error raised
        def tiny(k):
            return 1e-320 * np.exp(-1.0 * k * k), None, None

        def flat(k):
            return np.ones(len(k)), None, None

        log_tiny = math.log(1e-320)
        envs = [Envelope(log_tiny, 1.0, 0.0, log_tiny), gaussian(1.0)]
        with pytest.raises(DomainError, match="normal float range"):
            lattice_sum(Single(tiny), envs[0])
        with pytest.raises(ConvergenceBudgetExceeded, match="outer ring at radius"):
            lattice_sum(stacked(tiny, flat), stack(envs))

    @staticmethod
    def members(rng, n, geometric, redo):
        """(term, Envelope) of n series of one kind, Gaussian or geometric
        (curv 0); given ``redo``, every fifth is a wide one without terms
        near 0, whose largest term is far below its envelope's top (it fails
        the ring check, so the batch holding it is redone)."""
        members = []
        for i in range(n):
            wide = redo and i % 5 == 3
            if geometric:  # the wide ones the slowest, redone near R = 73
                rate, gap = (rng.uniform(0.55, 0.6), 20) if wide else (rng.uniform(0.6, 2.0), 0)
                members.append((lambda k, rate=rate, gap=gap: (
                    np.where(np.abs(k) >= gap, np.exp(-rate * np.abs(k)), 0.0) + 0j, None, None),
                    Envelope(0.0, 0.0, rate, 0.0)))
            elif wide:
                decay = rng.uniform(0.008, 0.01)  # the widest: R of 53 to 59
                members.append((partial(gapped, decay=decay, gap=30), gaussian(decay)))
            else:
                term, env, _ = shifted_gaussian(rng.uniform(0.05, 2.0), rng.randint(-3, 3),
                                                rng.uniform(-1, 1), rng.uniform(0.5, 5.0))
                members.append((term, env))
        return members

    @pytest.mark.parametrize("seed, redo", [(0, False), (1, True), (2, True)])
    def test_arrays_certify_as_series_by_series(self, monkeypatch, seed, redo):
        # beyond SMALL_BATCH series a batch takes its radii and certificates
        # on arrays: the same sums and traces as series by series (in one
        # box), for a batch of Gaussian envelopes and one of geometric ones
        rng, n = random.Random(seed), 2 * core.SMALL_BATCH + 1
        for geometric in (False, True):
            members = self.members(rng, n, geometric, redo)
            term, envs = stacked(*(t for t, _ in members)), [env for _, env in members]
            with monkeypatch.context() as patch:
                on_arrays = batch(term, envs)
                patch.setattr(core, "SMALL_BATCH", n)
                assert batch(term, envs) == on_arrays
            assert {t.stop for t in on_arrays[1]} == {"ring check" if redo else "tail bound"}

    @pytest.mark.parametrize("small", [False, True])
    def test_underflow_and_redo_on_arrays(self, monkeypatch, small):
        if small:
            monkeypatch.setattr(core, "SMALL_BATCH", 100)
        fine = [shifted_gaussian(1.0, 0, 0.1 * i) for i in range(2 * core.SMALL_BATCH)]
        terms, envs = [t for t, _, _ in fine], [env for _, env, _ in fine]
        log_tiny = math.log(1e-320)
        tiny = (lambda k: (1e-320 * np.exp(-1.0 * k * k), None, None),
                Envelope(log_tiny, 1.0, 0.0, log_tiny))
        flat = (lambda k: (np.ones(len(k)), None, None), gaussian(1.0))
        with pytest.raises(DomainError, match="normal float range"):
            lattice_sum(stacked(*terms, tiny[0]), stack(envs + [tiny[1]]))
        # the redo comes before the underflow
        with pytest.raises(ConvergenceBudgetExceeded, match="outer ring at radius"):
            lattice_sum(stacked(*terms, tiny[0], flat[0]), stack(envs + [tiny[1], flat[1]]))

    @pytest.mark.parametrize("small", [False, True])
    def test_all_zero_member_below_the_float_range(self, monkeypatch, small):
        if small:
            monkeypatch.setattr(core, "SMALL_BATCH", 100)
        fine = [shifted_gaussian(1.0, 0, 0.1 * i) for i in range(2 * core.SMALL_BATCH)]
        terms, envs = [t for t, _, _ in fine], [env for _, env, _ in fine]
        zero = (lambda k: (np.zeros(len(k)), None, None), Envelope(-1700.0, 1.0, 0.0, -1700.0))
        flat = (lambda k: (np.ones(len(k)), None, None), gaussian(1.0))
        with pytest.raises(DomainError, match="normal float range"):
            lattice_sum(stacked(*terms, zero[0]), stack(envs + [zero[1]]))
        # the redo comes before the underflow
        with pytest.raises(ConvergenceBudgetExceeded, match="outer ring at radius"):
            lattice_sum(stacked(*terms, zero[0], flat[0]), stack(envs + [zero[1], flat[1]]))

    def test_fault_in_one_member_raises(self):
        def fine(k):
            return np.exp(-1.0 * k * k), None, None

        def near_one(k):
            return np.exp(-1.0 * k * k), None, k == 1

        def overflows(k):
            return np.where(k == 0, np.inf, np.exp(-1.0 * k * k)), None, None

        envs = stack([gaussian(1.0)] * 2)
        with pytest.raises(BoundaryProximity):
            lattice_sum(stacked(fine, near_one), envs)
        with pytest.raises(DomainError, match="value or its modulus is not finite"):
            lattice_sum(stacked(fine, overflows), envs)
        with pytest.raises(DomainError, match="envelope is not finite"):
            lattice_sum(stacked(fine, fine), stack([gaussian(1.0), Envelope(math.nan, 1.0, 0.0, 0.0)]))


def appell_lerch_sum(quad, lin, c, n_shift, tau):
    """The sum that ``appell_record`` sets up, as f and g sum it."""
    return lattice_sum(*appell_record(quad, lin, c, n_shift, tau))


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


def series_of(monkeypatch, *calls):
    """The Series1D records that the calls hand the kernel."""
    kernel = kernel_calls(monkeypatch)
    for call in calls:
        call()
    monkeypatch.undo()
    return [args[0] for args in kernel if isinstance(args[0], Series1D)]


def record_calls(kind):
    """Calls of each kind of 1-D series at a few moduli and arguments."""
    calls = []
    for tau in (Modulus(0.3 + 0.9j), Modulus(-0.2 + 0.5j), Modulus(0.1 + 2j)):
        t = tau.tau
        for a1, a2 in ((0.3, 0.6), (-2.7, 1.2), (4.45, -3.15)):
            z1, z2 = a1 * t + 0.21, a2 * t - 0.37
            calls += {
                "theta": [lambda z=z1, tau=tau: theta(z, tau)],
                "theta'": [lambda z=z1, tau=tau: theta_prime(z, tau)],
                "lerch": [lambda z1=z1, z2=z2, tau=tau: kappa(z1, z2, tau),
                          lambda z1=z1, z2=z2, tau=tau: g0(z1, z2, tau),
                          lambda z1=z1, z2=z2, tau=tau: f_series(z1, z2, tau),
                          lambda z1=z1, z2=z2, tau=tau: g_series(z1, z2, tau)],
                "slope": [lambda z=(z1, z2, z1 - z2), tau=tau, n0=n0: theta_slope_coefficient(
                    (-1, Fraction(1, 2), 3), n0, z, tau) for n0 in (0, 1, 2)],
            }[kind]
    return calls


class TestSeries1D:
    @pytest.mark.parametrize("kind", ["theta", "theta'", "lerch", "slope"])
    def test_python_terms_match_numpy_terms(self, monkeypatch, kind):
        records = series_of(monkeypatch, *record_calls(kind))
        assert len({r.centre is None for r in records}) == 1
        assert {r.w1 is None for r in records} == {kind != "lerch"}
        for record in records:
            for radius in range(17):
                # a Lerch split inside the box, left of it and right of it
                splits = (record.split, -radius - 1, radius) if kind == "lerch" else (0,)
                for split in splits:
                    series = record._replace(split=split)
                    want = series(np.arange(-radius, radius + 1))[0]
                    got, points = series.short_terms(radius)
                    assert points == 2 * radius + 1
                    assert np.max(np.abs(np.array(got) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_pole_index_denominator_is_exact(self, monkeypatch):
        # g0's denominator 1 - e(m tau + z2) at m = 0 is about 1e-8 from 0
        tau = Modulus(0.3 + 0.9j)
        for phase in (0.0, 0.25, 0.6):
            z2 = 1e-8 / (2 * math.pi) * cmath.exp(2j * math.pi * phase)
            (record,) = series_of(monkeypatch, lambda: g0(0.4 * tau.tau + 0.1, z2, tau))
            k = record.pole
            w = record.w1 * k + record.w0
            assert 0.9e-8 < abs(w) < 1.1e-8
            for w in (w, -w):
                want = complex(np.expm1(w))
                assert abs(_expm1(w) - want) <= 1e-15 * abs(want)
                # e^w - 1 loses about half the digits here
                assert abs(cmath.exp(w) - 1 - want) > 1e-15 * abs(want)
            radius = abs(k) + 2
            want = record(np.arange(-radius, radius + 1))[0][k + radius]
            for pole, agrees in ((k, True), (radius + 1, False)):
                got = record._replace(pole=pole).short_terms(radius)[0][k + radius]
                assert (abs(got - want) <= 1e-15 * abs(want)) == agrees

    def test_near_pole_exponent_is_formed_exactly(self, monkeypatch):
        # g0's pole m = -6 is 5.6e-6 tau away; in floats, m tau + z2 keeps 9 digits
        tau = Modulus(2.823991419434379j)
        z1, z2 = 0.5 * tau.tau, 5.9999943765867485 * tau.tau
        (record,) = series_of(monkeypatch, lambda: g0(z1, z2, tau))
        exact = -6 * Fraction(tau.tau.imag) + Fraction(z2.imag)  # the real parts are 0
        assert record.w_pole == TWO_PI_I * complex(0, float(exact))
        k = record.pole
        assert abs(record.w1 * k + record.w0 - record.w_pole) > 1e-10 * abs(record.w_pole)
        # the Python and numpy terms at the pole both divide by e^w_pole - 1
        radius = abs(k) + 2
        python, numpy = record.short_terms(radius)[0], record(np.arange(-radius, radius + 1))[0]
        assert abs(python[k + radius] - numpy[k + radius]) <= 1e-15 * abs(python[k + radius])
        # a stacked set-up forms it only where the pole is close
        (stacked,) = series_of(monkeypatch, lambda: g0(np.array([z1, z1]),
                                                        np.array([z2, z2 + 0.31 * tau.tau]), tau))
        assert stacked.w_pole.tolist() == [record.w_pole, 0]
        # and no record away from the poles carries one
        assert all(r.w_pole == 0 for r in series_of(monkeypatch, *record_calls("lerch")))

    @staticmethod
    def exact_exponent_by_fractions(m, t, c):
        """The reference for core._exact_exponent, in Fractions."""
        m = Fraction(m)
        re, im = m * Fraction(t.real) + Fraction(c.real), m * Fraction(t.imag) + Fraction(c.imag)
        return TWO_PI_I * complex(float(re - round(re)), float(im))

    def test_exact_exponent_matches_the_fraction_reference(self):
        # the point of test_near_pole_exponent_is_formed_exactly, ties to even,
        # and seeded draws near the pole m = round(-alpha(c))
        t = 2.823991419434379j
        cases = [(-6.0, t, 5.9999943765867485 * t), (2.0, 0.25 + 1j, -1j), (6.0, 0.25 + 1j, 0j),
                 (-2.0, 0.25 + 1j, 0j), (3.0, 0.5 + 1j, 0.0 - 3j), (0.0, 1j, 1.5 + 0j)]
        rng = random.Random(2024)
        for _ in range(1000):
            t = complex(rng.uniform(-0.5, 0.5), rng.choice([0.02, 0.3, 1.0, 3.0]) * rng.random())
            m = float(rng.randint(-500, 500))
            near = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** -rng.randint(3, 12)
            cases.append((m, t, -m * t + rng.randint(-40, 40) + near))
        for m, t, c in cases:
            got, want = core._exact_exponent(m, t, c), self.exact_exponent_by_fractions(m, t, c)
            assert repr(got) == repr(want), (m, t, c)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("series", [
        Series1D(0j, 800 + 0j, 0j),  # e^800 overflows in cmath.exp
        Series1D(0j, 0j, 709 + 0j, 1e300),  # the weight takes e^709 past the float range
        Series1D(0j, 0j, 0j, None, 0j, 0j, 0, 5),  # e^0 - 1 = 0 divides
        Series1D(0j, 0j, 0j, None, 0j, 0j, 0, 0),  # expm1(0) = 0 divides
        Series1D(0j, 0j, 709.7 + 0.78j),  # parts finite, modulus above the float maximum
        Series1D(0j, 0j, complex(0, math.inf)),  # cmath.exp raises ValueError at an infinite phase
    ])
    def test_python_overflow_raises_domain_error(self, series):
        env = Envelope(0.0, 1.0, 0.0, 0.0)  # a radius of 1: the Python path
        with pytest.raises(DomainError, match="not finite"):
            lattice_sum(series, env)

    # single sums far past radius 16, summed in Python numbers: pinned bits,
    # which a sum of another order would move, each within 1e-15 of the
    # bits that a numpy reduction of the same terms gives (old); the terms
    # are the evaluator's set-up at the arguments as given, before the
    # evaluator takes them less round(Re z), which changes the terms
    @pytest.mark.parametrize("fn, args, tau, value, old, radius", [
        (theta, (0.905 + 0.0055j,), 0.406 + 0.02j, 1.2890692270608983 + 0.3850920760013962j,
         1.2890692270608983 + 0.38509207600139633j, 22),
        (theta, (0.573 + 0.0057j,), 0.136 + 0.03j, -0.37864984914290994 - 0.01615431274129007j,
         -0.37864984914291 - 0.016154312741289856j, 18),
        (theta_prime, (0.319 + 0.0185j,), -0.088 + 0.02j,
         -1.4396048166832265 - 12.257160395695276j,
         -1.4396048166832287 - 12.257160395695278j, 32),
        (theta_prime, (0.909 + 0.0104j,), -0.051 + 0.03j,
         11.119249059503831 - 33.17790513536898j,
         11.119249059503833 - 33.17790513536896j, 25),
        (kappa, (0.573 + 0.0019j, 0.095 + 0.0063j), -0.073 + 0.03j,
         1.6976977528086317 - 0.4443571336988607j,
         1.6976977528086312 - 0.44435713369886043j, 19),
        (kappa, (0.023 + 0.0277j, 0.859 + 0.0095j), 0.193 + 0.04j,
         2.6110664133999286 + 1.8330893212099464j,
         2.6110664133999295 + 1.8330893212099482j, 17),
        (g_series, (0.647 + 0.0178j, 0.447 + 0.0052j), -0.262 + 0.03j,
         1.4130469527639467 - 1.8308661471362233j,
         1.4130469527639462 - 1.830866147136224j, 19),
        (g_series, (0.863 + 0.0271j, 0.996 + 0.023j), 0.139 + 0.04j,
         9.26883984916355 - 0.5470646426199944j,
         9.268839849163548 - 0.5470646426199932j, 17),
        (f_series, (0.53 + 0.1868j, 0.054 + 0.1643j), -0.498 + 0.25j,
         -1.7851739158359061 + 3.8679539707425414j,
         -1.7851739158359072 + 3.8679539707425405j, 59),
        (f_series, (0.093 + 0.1087j, 0.086 + 0.261j), -0.382 + 0.4j,
         2.002220159533564 + 0.5836326002848783j,
         2.0022201595335636 + 0.5836326002848782j, 36),
    ])
    def test_numpy_sums_past_the_short_radius_keep_their_bits(self, fn, args, tau, value, old,
                                                              radius):
        trace, tau = [], Modulus(tau)
        if fn is kappa:  # -e(-y) times an Appell-Lerch sum
            y, x = args
            got = lattice_sum(*lerch_record(tau.tau / 2, x, -y, 0, tau), trace=trace) * -e_of(-y)
        else:
            setup = {theta: partial(_theta_record, derivative=False),
                     theta_prime: partial(_theta_record, derivative=True),
                     g_series: _g_record, f_series: _f_record}[fn]
            got = lattice_sum(*setup(*args, tau), trace=trace)
        assert got == value
        assert abs(value - old) <= 1e-15 * abs(old)
        assert [t.radius for t in trace] == [radius]


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


#: the evaluators, each 1-periodic in the real part of each argument
PERIODIC = ["theta", "theta_prime", "f_series", "f_closed", "g_series", "g0", "kappa",
            "h_series", "h0_series", "psi_closed", "p_correction", "g0_minus_g"]


def outcome(fn, args, tau):
    """fn's value, as a list for an array, or the type of the EvalError it raises."""
    try:
        value = fn(*args, tau)
    except core.EvalError as ex:
        return type(ex)
    return value.tolist() if type(value) is np.ndarray else value


@pytest.mark.parametrize("name", PERIODIC)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_evaluator_takes_re_z_less_round_re_z_exactly(name, data):
    # at Re z up to 1e10 an evaluator's value, or error, at z is that at z -
    # round(Re z), bit for bit, on numbers and on arrays
    fn = getattr(klab, name)
    tau = Modulus(data.draw(st.sampled_from([0.1 + 1j, 0.3 + 0.9j, -0.2 + 0.25j])))
    z = [complex(data.draw(st.integers(-10 ** 10, 10 ** 10)) + data.draw(st.floats(-0.5, 0.5)),
                 data.draw(st.floats(-1.5, 1.5)) * tau.tau.imag)
         for _ in range(list(inspect.signature(fn).parameters).index("tau"))]
    reduced = [zi - round(zi.real) for zi in z]
    assert outcome(fn, z, tau) == outcome(fn, reduced, tau)
    assert (outcome(fn, [np.array([zi, -zi]) for zi in z], tau)
            == outcome(fn, [np.array([zi, -zi]) for zi in reduced], tau))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, args, tau", [
    (klab.f_closed, (-7.3 * 3j + 0.1, 5.3 * 3j + 0.2), 3j),  # theta's ratio: inf / inf
    (kappa, (0.5 + 1.421875j, -0.5 - 35.726729541922076j), 5.6875j),  # the sum times e(-y)
    (klab.psi_closed, (-6.031622776601684 * 2.84375j,), 2.84375j),  # psi's kappa at 2 tau
])
def test_value_beyond_the_float_range_raises_domain_error(fn, args, tau):
    tau = Modulus(tau)
    for call in (args, [np.array([a]) for a in args]):
        with pytest.raises(DomainError, match="exceeds the float range"):
            fn(*call, tau)


def test_reduce_real_is_exact_and_half_to_even_on_numbers_and_arrays():
    zs = [2.5 + 1j, -2.5 - 1j, 3.5 + 0j, 0.5 + 0j, -0.5 + 2j, complex(-0.0, 1), complex(0.3, -0.0),
          1e10 + 0.3 + 0.1j, 1e300 + 1j, 0.7 + 0j]
    want = [0.5 + 1j, -0.5 - 1j, -0.5 + 0j, 0.5 + 0j, -0.5 + 2j, complex(-0.0, 1), complex(0.3, -0.0),
            0.2999992370605469 + 0.1j, 1j, 0.7 - 1 + 0j]
    assert repr([core.reduce_real(z) for z in zs]) == repr(want)
    assert repr(core.reduce_real(np.array(zs)).tolist()) == repr(want)
    window = np.array(zs[3:7])  # every |Re z| <= 1/2: the array itself
    assert core.reduce_real(window) is window
    for bad in (complex(math.nan, 0.1), complex(math.inf, 0.1), complex(0.1, math.inf)):
        for z in (bad, np.array([0.2, bad])):
            with pytest.raises(DomainError):
                core.reduce_real(z)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", PERIODIC)
def test_non_finite_argument_raises_domain_error_on_numbers_and_arrays(name):
    fn = getattr(klab, name)
    tau = Modulus(0.3 + 0.9j)
    arity = list(inspect.signature(fn).parameters).index("tau")
    for i, bad in itertools.product(range(arity), (complex(math.nan, 0.3), complex(math.inf, 0.3),
                                                   complex(0.3, math.nan), complex(0.3, math.inf))):
        args = [0.2 + 0.35j, 0.7 + 0.55j][:arity]
        args[i] = bad
        for call in (args, [np.array([a, 0.1 + 0.3j]) for a in args]):
            with pytest.raises(DomainError):
                fn(*call, tau)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", PERIODIC)
def test_alpha_past_the_float_range_raises_domain_error_on_numbers_and_arrays(name):
    # Im z / Im tau = 1e309: round or floor of inf raised OverflowError or
    # ValueError, and on arrays numpy warned first
    fn = getattr(klab, name)
    tau = Modulus(0.1j)
    arity = list(inspect.signature(fn).parameters).index("tau")
    for i in range(arity):
        args = [0.2 + 0.035j, 0.7 + 0.055j][:arity]
        args[i] = 0.1 + 1e308j
        for call in (args, [np.array([a]) for a in args]):
            with pytest.raises(DomainError):
                fn(*call, tau)


@pytest.mark.filterwarnings("error")
def test_h0_at_a_finite_alpha_whose_double_is_past_the_float_range_raises_domain_error():
    # alpha = 0.9e308 is finite, but h0's window centre 2 (a1 + a2 - 1) is
    # not: round of it raised OverflowError on numbers
    for args in ((0.1 + 0.9e308j, 0.1 + 0.3j), (0.1 + 0.3j, 0.1 + 0.9e308j)):
        for call in (args, [np.array([a]) for a in args]):
            with pytest.raises(DomainError):
                klab.h0_series(*call, Modulus(1j))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, args", [
    ("theta", (np.array([0.1 + 1e300j]),)),  # numpy warned of an overflow in multiply
    ("h0_series", (np.array([0.1 + 0.9e308j]),) * 2),  # and of one in add
    ("f_closed", (np.array([0.1 + 0.9e308j]),) * 2),
])
def test_a_stacked_set_up_past_the_float_range_raises_without_a_warning(name, args):
    with pytest.raises(DomainError):
        getattr(klab, name)(*args, Modulus(1j))


class TestArrays:
    """An evaluator on numpy arrays is one batch per series; it equals the
    loop of its scalar calls."""

    @staticmethod
    def points(tau, n, seed):
        rng = random.Random(seed)
        return np.array([rng.choice([0.05, 1.3, -2.4]) * tau.tau + rng.uniform(0.05, 0.95) * tau.tau
                         + rng.uniform(-1, 1) for _ in range(n)])

    # at 0.1 + 0.03i the series of these points run past radius 16 (all but
    # psi_closed's thetas at 2 tau, summed once), to 1,236 for f; the scalar
    # calls sum them in Python numbers and the array calls in numpy
    @pytest.mark.parametrize("tau", [Modulus(0.3 + 0.9j), Modulus(-0.2 + 0.12j),
                                     Modulus(0.1 + 0.03j)])
    @pytest.mark.parametrize("name", ["theta", "theta_prime", "kappa", "g0", "g_series", "f_series",
                                      "f_closed", "h_series", "h0_series", "psi_closed",
                                      "g0_minus_g", "p_correction"])
    def test_array_call_matches_scalar_calls(self, name, tau):
        fn = getattr(klab, name)
        z1, z2 = self.points(tau, 12, 1), self.points(tau, 12, 2)
        # both arrays; an array and a scalar; a 3 x 4 array
        cases = [(z1, z2), (z1, complex(z2[0])), (z1.reshape(3, 4), z2.reshape(3, 4))]
        arity = list(inspect.signature(fn).parameters).index("tau")
        for args in cases:
            args = args[:arity]
            shape = np.broadcast_shapes(*(np.shape(a) for a in args))
            got = fn(*args, tau)
            want = [fn(*(complex(np.broadcast_to(a, shape)[i]) for a in args), tau)
                    for i in np.ndindex(shape)]
            assert got.shape == shape
            assert np.all(np.abs(got.ravel() - want) <= 1e-13 * np.abs(want))

    def test_one_trace_per_element(self):
        tau = Modulus(0.3 + 0.9j)
        z1, z2 = self.points(tau, 7, 3), self.points(tau, 7, 4)
        for fn in (theta, kappa, f_series, klab.h_series):
            args = (z1,) if fn is theta else (z1, z2)
            traces, alone = [], []
            fn(*args, tau, trace=traces)
            for element in zip(*args):
                fn(*element, tau, trace=alone)
            assert len(traces) == 7 and all(isinstance(t, core.SeriesTrace) for t in traces)
            # the batch shares the largest radius of its members
            assert {t.radius for t in traces} == {max(t.radius for t in alone)}

    @pytest.mark.parametrize("name, sums, constants", [
        ("f_closed", 3, 1),  # its three thetas, and theta'(xi) summed or kept
        ("g0_minus_g", 1, 0),  # theta(z1 + z2)
        ("psi_closed", 3, 2),  # its three kappa sums, and theta(0, 2 tau) and theta(xi, 2 tau)
    ])
    def test_closed_forms_trace_one_series_trace_per_sum(self, name, sums, constants):
        fn, tau = getattr(klab, name), Modulus(0.3 + 0.9j)
        z1, z2 = self.points(tau, 7, 3), self.points(tau, 7, 4)
        args = (z1, z2)[:list(inspect.signature(fn).parameters).index("tau")]
        for call in (args, [complex(a[0]) for a in args]):  # an array call, then a number's
            traces = []
            fn(*call, tau, trace=traces)
            assert all(isinstance(t, core.SeriesTrace) for t in traces)
            assert len(traces) == np.size(call[0]) * sums + constants

    def test_empty_array(self):
        assert theta(np.zeros(0, complex), Modulus(1j)).shape == (0,)

    @pytest.mark.parametrize("fn, a1, a2, error", [
        (f_series, 2.0, 0.4, PoleProximity),  # alpha(z1) an integer
        (klab.h_series, -1.0, 0.4, PoleProximity),
        (kappa, 3.0, 0.4, PoleProximity),  # y on the period lattice
        (f_series, 0.001, 0.001, ConvergenceBudgetExceeded),  # a radius beyond max_shell
    ])
    def test_one_failing_element_raises(self, fn, a1, a2, error):
        tau, budget = Modulus(0.3 + 0.9j), SummationBudget(max_shell=64)
        z1, z2 = self.points(tau, 6, 5), self.points(tau, 6, 6)
        z1[4], z2[4] = a1 * tau.tau, a2 * tau.tau + 0.1
        with pytest.raises(error):
            fn(complex(z1[4]), complex(z2[4]), tau, budget)
        with pytest.raises(error):
            fn(z1, z2, tau, budget)

    @pytest.mark.parametrize("name", ["theta", "kappa", "h_series"])
    def test_non_finite_element_of_a_2d_array_is_named(self, name):
        # the element is looked up in the flat view of the argument, not at
        # its flat index along the first axis (an IndexError)
        z = np.array([[0.1, 0.2], [math.nan, 0.3]])
        args = (z,) if name == "theta" else (z, 0.1 + 0.2j)
        with pytest.raises(DomainError, match="argument nan is not finite"):
            getattr(klab, name)(*args, Modulus(1j))

    def test_e_of_errors_are_typed(self):
        with pytest.raises(DomainError, match="overflows"):
            e_of(-200j)
        with pytest.raises(DomainError, match="not finite"):
            e_of(np.array([0.1, -200j]))
        with pytest.raises(DomainError, match="not finite"):
            e_of(np.array([0.1, complex(math.nan, 0)]))
        assert np.array_equal(e_of(np.array([0.25, 0.5])), [e_of(0.25), e_of(0.5)])
        # a 1-element array stays an array, and its overflow is typed too
        one = e_of(np.array([0.25]))
        assert type(one) is np.ndarray and one.shape == (1,) and one[0] == e_of(0.25)
        with pytest.raises(DomainError, match="not finite"):
            e_of(np.array([-200j]))


_theta, _appell, _kronecker, _hfun = map(importlib.import_module, (
    "klab.theta", "klab.appell", "klab.kronecker", "klab.hfun"))
#: Each series' set-up, as a function of (z1, z2, tau, on): the arguments
#: its evaluator hands it (kappa(y, x) with y = z2, x = z1).
SET_UPS = {
    "theta": lambda z1, z2, tau, on: _theta._theta_record(z1, tau, False, on),
    "theta'": lambda z1, z2, tau, on: _theta._theta_record(z1, tau, True, on),
    "kappa": lambda z1, z2, tau, on: core.lerch_record(tau.tau / 2, z1, -z2, 0, tau, on),
    "g0": lambda z1, z2, tau, on: core.lerch_record(tau.tau / 2, z1 + z2, z2, 0, tau, on),
    "g": lambda z1, z2, tau, on: _appell._g_record(z1, z2, tau, on),
    "f": lambda z1, z2, tau, on: _kronecker._f_record(z1, z2, tau, on),
    "h": lambda z1, z2, tau, on: _hfun._window_record(z1, z2, tau, False, on),
    "h0": lambda z1, z2, tau, on: _hfun._window_record(z1, z2, tau, True, on),
}
#: alpha anywhere in several windows, negative, or an integer plus a shift
#: at, inside or just outside the guard, or well away from it
ALPHAS = st.one_of(
    st.floats(-6, 6),
    st.builds(lambda k, d: k + d, st.integers(-4, 4),
              st.sampled_from([0.0, 1e-12, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6, -1e-6, 0.3])))


class TestStackedSetUp:
    """A set-up on arrays gives element i the record and Envelope of its
    scalar set-up at point i, bit for bit (equal as numbers, so that 0 and
    -0 match); where a point's set-up raises, the array's raises its kind."""

    @staticmethod
    def element(field, i):
        return field[i].item() if type(field) is np.ndarray else field

    @settings(max_examples=40, deadline=None)
    @given(tau=st.sampled_from([0.3 + 0.9j, -0.2 + 0.12j, 0.1 + 2j, 0.45 + 0.5j]),
           points=st.lists(st.tuples(ALPHAS, ALPHAS, st.floats(0, 1), st.floats(0, 1)),
                           min_size=1, max_size=8))
    @pytest.mark.parametrize("name", sorted(SET_UPS))
    def test_elements_match_scalar_set_ups(self, name, tau, points):
        setup, tau = SET_UPS[name], Modulus(tau)
        z1 = np.array([a1 * tau.tau + x1 for a1, _, x1, _ in points])
        z2 = np.array([a2 * tau.tau + x2 for _, a2, _, x2 in points])
        alone = []
        for w1, w2 in zip(z1.tolist(), z2.tolist()):
            try:
                alone.append(setup(w1, w2, tau, core._NUMBERS))
            except core.EvalError as ex:
                alone.append(ex.kind)
        kinds = {a for a in alone if isinstance(a, str)}
        if kinds:
            with pytest.raises(core.EvalError) as raised:
                setup(z1, z2, tau, core._ARRAYS)
            assert raised.value.kind in kinds
            return
        record, env = setup(z1, z2, tau, core._ARRAYS)
        assert type(env.top) is np.ndarray and env.top.shape == z1.shape
        for i, (one, one_env) in enumerate(alone):
            assert type(record) is type(one)
            for stacked, field in zip((*record, *env), (*one, *one_env)):
                assert self.element(stacked, i) == field

    @pytest.mark.parametrize("name", sorted(SET_UPS))
    def test_one_failing_element_raises_its_kind(self, name):
        tau = Modulus(0.3 + 0.9j)
        z1 = np.array([0.4, 1.3, -2.6]) * tau.tau + 0.2
        z2 = np.array([0.7, -0.45, 2.2]) * tau.tau + 0.1
        z1[1] = 2.0 * tau.tau  # alpha(z1) an integer: a pole of every series but h0
        kinds = set()
        for w1, w2 in zip(z1.tolist(), z2.tolist()):
            try:
                SET_UPS[name](w1, w2, tau, core._NUMBERS)
            except core.EvalError as ex:
                kinds.add(ex.kind)
        if not kinds:  # theta, theta' and h0 are entire
            SET_UPS[name](z1, z2, tau, core._ARRAYS)
            return
        with pytest.raises(core.EvalError) as raised:
            SET_UPS[name](z1, z2, tau, core._ARRAYS)
        assert {raised.value.kind} == kinds
