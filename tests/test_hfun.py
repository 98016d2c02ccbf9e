import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from klab import core, hfun
from klab.core import (
    DEFAULT_BUDGET,
    EvalError,
    Modulus,
    PoleProximity,
    SummationBudget,
    e_of,
    lattice_sum,
)
from klab.appell import g_series, kappa
from klab.hfun import h0_series, h_series, psi_closed
from klab.theta import theta

from conftest import kernel_calls, sample_z
from quadrant_reference import h_reference


class TestHSeries:
    def test_hqp1(self, tau_i, rng):
        t = tau_i.tau
        for m in (-1, 0, 1):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            base = h_series(z1, z2, tau_i)
            got = h_series(z1 + m + t, z2, tau_i)
            rhs = e_of(-t - 2 * z1 - 2 * z2) * base
            assert abs(got - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_hqp2(self, tau_i, rng):
        t = tau_i.tau
        for m in (-1, 0, 1):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            base = h_series(z1, z2, tau_i)
            got = h_series(z1, z2 + m + t, tau_i)
            rhs = e_of(-t / 2 - 2 * z1 - z2) * base
            assert abs(got - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_period_one(self, tau_i, rng):
        z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
        assert abs(h_series(z1 + 1, z2, tau_i) - h_series(z1, z2, tau_i)) < 1e-12

    def test_guard(self, tau_i):
        with pytest.raises(PoleProximity):
            h_series(0.3, 0.5 * tau_i.tau, tau_i)

    def test_cone_met_away_from_origin(self):
        # alpha = (-1.6, 1.8): the cone misses the shells of radius 0 and 1;
        # carry the value by quasi-periodicity to alpha = (0.4, 0.8)
        tau = Modulus(0.4j)
        t, s = tau.tau, 1 + tau.tau
        z1, z2 = -1.6 * t + 0.21, 1.8 * t + 0.66
        value = h_series(z1, z2, tau)
        assert value != 0
        for _ in range(2):
            value *= e_of(-t - 2 * z1 - 2 * z2)
            z1 += s
        z2 -= s
        value /= e_of(-t / 2 - 2 * z1 - z2)
        want = h_series(z1, z2, tau)
        assert abs(value - want) < 1e-12 * abs(want)


class TestH0Series:
    def test_equals_h_in_strip(self, tau_i, rng):
        for _ in range(5):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            assert abs(h0_series(z1, z2, tau_i) - h_series(z1, z2, tau_i)) < 1e-9

    def test_defined_at_real_arguments(self, tau_i):
        # h itself rejects alpha = 0; h0 is entire
        val = h0_series(0.3, 0.4, tau_i)
        assert abs(val) < 1e3

    def test_diagonal_recursion(self, tau_i, rng):
        t = tau_i.tau
        tau2 = tau_i.scaled(2)
        for _ in range(5):
            x = sample_z(rng, tau_i)
            lhs = h0_series(x + t, -(x + t), tau_i)
            rhs = e_of(t / 2 + x) * (
                h0_series(x, -x, tau_i) - theta(x, tau_i)
            ) + theta(0, tau2)
            assert abs(lhs - rhs) < 1e-9

    def test_budget_doubling_invariance(self, tau_i):
        z1, z2 = 0.21 + 0.1j, -0.4 + 0.05j
        small = SummationBudget(max_shell=100)
        big = SummationBudget(max_shell=200)
        assert abs(
            h0_series(z1, z2, tau_i, small) - h0_series(z1, z2, tau_i, big)
        ) < DEFAULT_BUDGET.target_tol


class TestPsi:
    def test_closed_form(self, tau_i, rng):
        xi = tau_i.xi
        for _ in range(5):
            x = sample_z(rng, tau_i)
            direct = theta(x - xi, tau_i) * h0_series(x, -x, tau_i)
            assert abs(direct - psi_closed(x, tau_i)) < 1e-8

    def test_difference_equation(self, tau_i, rng):
        t, xi = tau_i.tau, tau_i.xi
        tau2 = tau_i.scaled(2)
        for _ in range(5):
            x = sample_z(rng, tau_i)
            lhs = psi_closed(x + t, tau_i)
            rhs = (
                e_of(xi) * psi_closed(x, tau_i)
                + e_of(t / 2) * theta(x, tau_i) * theta(x - xi, tau_i)
                + theta(0, tau2) * theta(x + xi, tau_i)
            )
            assert abs(lhs - rhs) < 1e-8

    def test_period_one(self, tau_i, rng):
        x = sample_z(rng, tau_i)
        assert abs(psi_closed(x + 1, tau_i) - psi_closed(x, tau_i)) < 1e-10


class TestPsiConstants:
    """theta(0, 2 tau) and theta(xi, 2 tau) are summed once per Modulus and
    budget, and kept ones give the bits and traces of their sums."""

    TAU = 0.1 + 1j
    X = 0.3 * TAU + 0.2

    def test_a_second_call_sums_only_its_kappas(self, monkeypatch):
        tau = Modulus(self.TAU)
        calls = kernel_calls(monkeypatch)
        first = psi_closed(self.X, tau)
        assert len(calls) == 5
        second = psi_closed(self.X, tau)
        assert len(calls) == 5 + 3
        monkeypatch.undo()
        assert repr(first) == repr(second) == repr(psi_closed(self.X, Modulus(self.TAU)))

    def test_array_calls_take_the_kept_constants(self, monkeypatch):
        tau = Modulus(self.TAU)
        x = np.array([0.3, 0.45, -1.2]) * self.TAU + 0.2
        psi_closed(self.X, tau)
        calls = kernel_calls(monkeypatch)
        got = psi_closed(x, tau)
        assert len(calls) == 2  # one batch per modulus: kappa at tau, both at 2 tau
        monkeypatch.undo()
        assert got.tolist() == psi_closed(x, Modulus(self.TAU)).tolist()

    def test_each_budget_keeps_its_own_constants(self, monkeypatch):
        tau, loose = Modulus(self.TAU), SummationBudget(target_tol=1e-6)
        calls = kernel_calls(monkeypatch)
        for budget in (DEFAULT_BUDGET, loose, DEFAULT_BUDGET, loose):
            psi_closed(self.X, tau, budget)
        assert len(calls) == 5 + 5 + 3 + 3
        assert {key for key in tau._memo if type(key) is tuple} == {
            (name, budget.target_tol, budget.max_shell)
            for name in ("theta(0, 2 tau)", "theta(xi, 2 tau)")
            for budget in (DEFAULT_BUDGET, loose)}
        monkeypatch.undo()
        for budget in (DEFAULT_BUDGET, loose):
            assert (repr(psi_closed(self.X, tau, budget))
                    == repr(psi_closed(self.X, Modulus(self.TAU), budget)))

    def test_a_kept_constant_traces_as_its_sum(self):
        tau, miss, hit = Modulus(self.TAU), [], []
        psi_closed(self.X, tau, trace=miss)
        psi_closed(self.X, tau, trace=hit)
        assert len(miss) == 5 and hit == miss

    def test_the_memo_leaves_equality_hash_and_repr(self):
        tau = Modulus(self.TAU)
        before = tau == Modulus(self.TAU), hash(tau), repr(tau)
        psi_closed(self.X, tau)
        assert tau._memo
        assert (tau == Modulus(self.TAU), hash(tau), repr(tau)) == before
        assert before == (True, hash(Modulus(self.TAU)), "Modulus(tau=(0.1+1j))")


class TestIdentity2:
    def test_samples(self, tau_i, rng):
        t = tau_i.tau
        tau2 = tau_i.scaled(2)
        for _ in range(5):
            x, y, z = (sample_z(rng, tau_i) for _ in range(3))
            lhs = theta(2 * x + y, tau_i) * h0_series(x, z, tau_i) - theta(
                2 * x + z, tau_i
            ) * h0_series(x, y, tau_i)
            w = -2 * x - y - z
            rhs = theta(2 * (x + z), tau2) * kappa(
                w, 2 * x + y + t, tau_i
            ) - theta(2 * (x + y), tau2) * kappa(w, 2 * x + z + t, tau_i)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_antisymmetric_diagonal(self, tau_i, rng):
        x, y = sample_z(rng, tau_i), sample_z(rng, tau_i)
        lhs = theta(2 * x + y, tau_i) * h0_series(x, y, tau_i) - theta(
            2 * x + y, tau_i
        ) * h0_series(x, y, tau_i)
        assert lhs == 0


class TestFiveLineHIdentity:
    def test_samples(self, tau_i, rng):
        tau2 = tau_i.scaled(2)
        for _ in range(5):
            z1, z2, z3 = (sample_z(rng, tau_i, margin=0.15) for _ in range(3))
            try:
                lhs = theta(2 * z1 + z3, tau_i) * h_series(
                    z1 + z3, -z1 + z2 - z3, tau_i
                ) + theta(z1 + z2 + z3, tau_i) * h_series(-z1 - z3, z3, tau_i)
                rhs = theta(2 * z2, tau2) * g_series(
                    -z1 + z2 - z3, -z1 - z2, tau_i
                ) + theta(2 * z1, tau2) * g_series(z3, z1 + z2, tau_i)
            except PoleProximity:
                continue
            assert abs(lhs - rhs) < 1e-8


#: alpha anywhere in [-6, 6], or an integer plus a shift at, inside or just
#: outside the guard, or well away from it
ALPHAS = st.one_of(
    st.floats(-6, 6),
    st.builds(lambda k, d: k + d, st.integers(-5, 5),
              st.sampled_from([0.0, 1e-12, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6, -1e-6, 0.5])))
IM_TAUS = st.sampled_from([0.1, 0.12, 0.3, 1.0, 2.0])


def reference(z1, z2, tau, frozen):
    """(value, largest term) of the quadrant sum, or the kind of its error."""
    try:
        return h_reference(z1, z2, tau, frozen)
    except EvalError as ex:
        return ex.kind


def random_records(n, seed):
    """n (record, Envelope, radius) of h and h0 at random alpha in [-6, 6]
    and Im(tau) in [0.1, 2], each with the radius its sum took."""
    rng, out = random.Random(seed), []
    while len(out) < n:
        tau = Modulus(complex(rng.uniform(-0.5, 0.5), rng.choice([0.1, 0.12, 0.3, 1.0, 2.0])))
        z1, z2 = (rng.uniform(-6, 6) * tau.tau + rng.random() for _ in range(2))
        try:
            record, env = hfun._window_record(z1, z2, tau, rng.random() < 0.5)
            trace = []
            lattice_sum(record, env, trace=trace)
        except EvalError:
            continue
        out.append((record, env, trace[0].radius))
    return out


def numpy_terms(record, k):
    """The numpy terms and point counts of a single record, as the one row
    of a batch: a single sum takes its Python terms."""
    values, points, _ = hfun._Windows(*(np.array([f]) for f in record))(k)
    return values[0], points[0]


class TestWindowsAgainstQuadrant:
    """The 1-D series over k = m + n against the 2-D quadrant sum of the same
    cone: within 1e-12 of the quadrant's largest term, with the same error
    kind where one raises."""

    @settings(max_examples=60, deadline=None)
    @given(frozen=st.booleans(), im=IM_TAUS, re=st.floats(-0.5, 0.5), a1=ALPHAS, a2=ALPHAS,
           x1=st.floats(0, 1), x2=st.floats(0, 1))
    def test_scalar_calls(self, frozen, im, re, a1, a2, x1, x2):
        tau = Modulus(complex(re, im))
        z1, z2 = a1 * tau.tau + x1, a2 * tau.tau + x2
        want = reference(z1, z2, tau, frozen)
        fn = h0_series if frozen else h_series
        if isinstance(want, str):
            with pytest.raises(EvalError) as raised:
                fn(z1, z2, tau)
            assert raised.value.kind == want
            return
        value, largest = want
        assert abs(fn(z1, z2, tau) - value) <= 1e-12 * largest

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("im", [0.02, 0.025, 0.03])
    def test_scalar_calls_past_the_short_radius(self, frozen, im):
        # a single sum takes the Python terms at every radius
        rng = random.Random(int(im * 1000) + frozen)
        fn = h0_series if frozen else h_series
        for _ in range(5):
            tau = Modulus(complex(rng.uniform(-0.5, 0.5), im))
            z1, z2 = (rng.uniform(-1, 2) * tau.tau + rng.random() for _ in range(2))
            value, largest = h_reference(z1, z2, tau, frozen)
            trace = []
            assert abs(fn(z1, z2, tau, trace=trace) - value) <= 1e-12 * largest
            assert trace[0].radius > 16

    @settings(max_examples=25, deadline=None)
    @given(frozen=st.booleans(), im=IM_TAUS,
           points=st.lists(st.tuples(ALPHAS, ALPHAS, st.floats(0, 1), st.floats(0, 1)),
                           min_size=1, max_size=6))
    def test_array_calls(self, frozen, im, points):
        tau = Modulus(complex(0.2, im))
        z1 = np.array([a1 * tau.tau + x1 for a1, _, x1, _ in points])
        z2 = np.array([a2 * tau.tau + x2 for _, a2, _, x2 in points])
        want = [reference(w1, w2, tau, frozen) for w1, w2 in zip(z1.tolist(), z2.tolist())]
        fn = h0_series if frozen else h_series
        kinds = {w for w in want if isinstance(w, str)}
        if kinds:
            with pytest.raises(EvalError) as raised:
                fn(z1, z2, tau)
            assert raised.value.kind in kinds
            return
        got = fn(z1, z2, tau)
        for value, (ref, largest) in zip(got.tolist(), want):
            assert abs(value - ref) <= 1e-12 * largest


class TestWindows:
    def test_envelope_bounds_terms_to_three_radii(self):
        for record, env, radius in random_records(60, 1):
            j = np.arange(-3 * radius, 3 * radius + 1)
            with np.errstate(divide="ignore"):
                logs = np.log(np.abs(numpy_terms(record, j)[0]))
            bound = env.peak - env.curv * j * j - env.rate * np.abs(j)
            assert np.all(logs <= bound + 1e-9)

    def test_python_terms_match_numpy_terms(self, monkeypatch):
        # a small block span runs the numpy sums in many blocks
        for span in (hfun._SPAN, 1.0):
            monkeypatch.setattr(hfun, "_SPAN", span)
            for record, _, _ in random_records(40, 2):
                for radius in (0, 1, 5, 16):
                    want, points = numpy_terms(record, np.arange(-radius, radius + 1))
                    got, count = record.short_terms(radius)
                    assert count == points.sum()
                    assert np.max(np.abs(np.array(got) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("im", [0.1, 2.0])
    @pytest.mark.parametrize("size", [8, 24])
    def test_batch_with_spread_windows_is_finite_or_typed(self, im, size):
        # alpha(z1) across [-6, 6] spreads the members' windows, so the inner
        # index range that the batch shares holds terms of very different
        # sizes, and each member is summed past its own radius
        tau = Modulus(complex(0.2, im))
        rng = random.Random(size)
        z1 = np.array([rng.uniform(-6, 6) * tau.tau + rng.random() for _ in range(size)])
        z2 = np.array([rng.uniform(-1, 2) * tau.tau + rng.random() for _ in range(size)])
        offsets = hfun._window_record(z1, z2, tau, True, core._ARRAYS)[0].offset
        assert np.ptp(offsets) >= 10
        alone = []
        for w1, w2 in zip(z1.tolist(), z2.tolist()):
            try:
                alone.append(h0_series(w1, w2, tau))
            except EvalError as ex:
                alone.append(ex.kind)
        try:
            got = h0_series(z1, z2, tau)
        except EvalError as ex:
            assert ex.kind in {a for a in alone if isinstance(a, str)}
            return
        assert np.all(np.isfinite(got))
        for value, want in zip(got.tolist(), alone):
            assert abs(value - want) <= 1e-12 * abs(want)
