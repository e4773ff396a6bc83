"""Unit and property tests for the closed-form capacity expressions.

Expected values marked "oracle" were computed with the independent bisection
solvers defined at the top of this file and frozen; they never call the code
path under test.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtcap import analytics as an


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _term(v):
    return v * (1.0 - 0.5 * v) / (1.0 - v)


def bisect_balanced_root(path_length, iters=200):
    """Solve stage delay factor == 1/path_length by plain interval halving."""
    lo, hi = 0.0, 1.0 - 1e-15
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _term(mid) > 1.0 / path_length:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisect_convergecast_root(m, k, iters=300):
    """Solve the ring-sum equality by plain interval halving."""
    lo, hi = 0.0, m * (1.0 - 1e-12)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        s = sum(_term(mid / ((2 * x - 1) * m)) for x in range(1, k + 1))
        if s > 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def odd_harmonic_loop(k):
    return sum(1.0 / (2 * x - 1) for x in range(1, k + 1))


# ---------------------------------------------------------------------------
# Stage delay and feasibility
# ---------------------------------------------------------------------------

class TestStageDelayTerm:
    def test_zero(self):
        assert an.stage_delay_term(0.0) == 0.0

    def test_half(self):
        assert an.stage_delay_term(0.5) == pytest.approx(0.75)

    def test_pole(self):
        with pytest.raises(an.PoleError):
            an.stage_delay_term(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            an.stage_delay_term(-0.1)

    @pytest.mark.parametrize("vq", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_by_value(self, vq):
        # NaN passed the old `vq < 0` check; +inf read as the pole
        with pytest.raises(ValueError, match=f"not finite: {vq!r}") as err:
            an.stage_delay_term(vq)
        assert not isinstance(err.value, an.PoleError)

    def test_strictly_increasing_and_convex(self):
        rng = np.random.default_rng(7)
        vs = np.sort(rng.uniform(0.0, 0.999, size=500))
        terms = np.array([an.stage_delay_term(v) for v in vs])
        assert np.all(np.diff(terms) > 0)
        # convexity: chord midpoint never below the function value
        a, b = vs[:-1], vs[1:]
        mid = 0.5 * (a + b)
        chord = 0.5 * (terms[:-1] + terms[1:])
        f_mid = np.array([an.stage_delay_term(v) for v in mid])
        assert np.all(chord >= f_mid - 1e-12)

    def test_dominates_identity(self):
        # term(v) >= v on [0, 1): the DM bound is never laxer than EDF's
        rng = np.random.default_rng(8)
        for v in rng.uniform(0.0, 0.999, size=200):
            assert an.stage_delay_term(v) >= v


class TestDmPathFeasible:
    def test_empty_path(self):
        rep = an.dm_path_feasible([])
        assert rep.feasible and rep.lhs_value == 0.0

    def test_boundary_pair(self):
        # each utilization is the two-hop balanced root, so each stage
        # contributes exactly 1/2
        rep = an.dm_path_feasible([0.381966, 0.381966])
        assert rep.feasible
        assert rep.lhs_value == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_single(self):
        rep = an.dm_path_feasible([0.6])
        assert not rep.feasible
        assert rep.lhs_value == pytest.approx(1.05)
        assert rep.margin == pytest.approx(-0.05)

    def test_pole_becomes_infinite_lhs(self):
        rep = an.dm_path_feasible([0.2, 1.0])
        assert not rep.feasible
        assert rep.lhs_value == math.inf
        assert rep.margin == -math.inf

    @pytest.mark.parametrize("vq", [math.nan, math.inf])
    def test_non_finite_refused_not_reported(self, vq):
        # a finite vq >= 1 gives the report above; these gave a NaN lhs or
        # an infeasible report
        with pytest.raises(ValueError, match=f"not finite: {vq!r}"):
            an.dm_path_feasible([0.2, vq])

    def test_delta_range(self):
        with pytest.raises(ValueError):
            an.dm_path_feasible([0.1], delta=0.0)
        with pytest.raises(ValueError):
            an.dm_path_feasible([0.1], delta=1.5)

    def test_smaller_delta_is_stricter(self):
        vqs = [0.3, 0.3]
        assert an.dm_path_feasible(vqs, delta=1.0).feasible
        assert not an.dm_path_feasible(vqs, delta=0.5).feasible


class TestEdfPathFeasible:
    def test_empty(self):
        rep = an.edf_path_feasible([])
        assert rep.feasible and rep.lhs_value == 0.0

    def test_boundary(self):
        rep = an.edf_path_feasible([0.5, 0.5])
        assert rep.feasible and rep.lhs_value == pytest.approx(1.0)

    def test_infeasible(self):
        rep = an.edf_path_feasible([0.6, 0.5])
        assert not rep.feasible
        assert rep.lhs_value == pytest.approx(1.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            an.edf_path_feasible([-0.1])

    @pytest.mark.parametrize("vq", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_by_value(self, vq):
        # a NaN or infinite utilization gave a NaN or infinite lhs
        with pytest.raises(ValueError, match=f"not finite: {vq!r}"):
            an.edf_path_feasible([0.2, vq])


# ---------------------------------------------------------------------------
# Load-balanced capacity
# ---------------------------------------------------------------------------

class TestBalancedVqBound:
    def test_single_hop(self):
        assert an.balanced_vq_bound(1) == pytest.approx(0.585786, abs=1e-6)

    def test_two_hops(self):
        assert an.balanced_vq_bound(2) == pytest.approx(0.381966, abs=1e-6)

    def test_long_path_limit(self):
        # N * VQ(N) -> 1 from below
        for n in (1e3, 1e5, 1e7):
            assert n * an.balanced_vq_bound(n) == pytest.approx(1.0, abs=1e-2)
        assert an.balanced_vq_bound(1e7) < 1e-6

    def test_rejects_short_path(self):
        with pytest.raises(ValueError):
            an.balanced_vq_bound(0.5)

    def test_root_consistency(self):
        # substituting the closed form back gives exactly 1/N
        rng = np.random.default_rng(11)
        ns = np.concatenate([np.arange(1, 51), rng.uniform(1, 1e4, size=200)])
        for n in ns:
            v = an.balanced_vq_bound(n)
            assert abs(an.stage_delay_term(v) - 1.0 / n) <= 1e-9

    def test_matches_bisection_oracle(self):
        for n in (1, 2, 3, 7, 10, 50, 400):
            assert abs(an.balanced_vq_bound(n) - bisect_balanced_root(n)) <= 1e-8


class TestRtccBalanced:
    PARAMS = an.AnalyticParams(node_count=100, bandwidth=250_000,
                               neighborhood_bound=10, inversion_factor=2.0,
                               path_length=5)

    def test_edf_value(self):
        bound = an.rtcc_balanced(an.EDF, self.PARAMS)
        assert bound.value == pytest.approx(250_000)
        assert bound.scheduler == "EDF"
        assert bound.topology_class == "balanced"
        assert bound.utilization_at_bottleneck == pytest.approx(0.2)

    def test_dm_value(self):
        bound = an.rtcc_balanced(an.DM, self.PARAMS)
        assert bound.value == pytest.approx(225_245, abs=1.0)

    def test_ratio_single_hop(self):
        p = an.AnalyticParams(node_count=10, bandwidth=1e6,
                              neighborhood_bound=4, path_length=1)
        dm = an.rtcc_balanced(an.DM, p).value
        edf = an.rtcc_balanced(an.EDF, p).value
        assert dm / edf == pytest.approx(0.585786, abs=1e-6)

    def test_dm_never_exceeds_edf(self):
        rng = np.random.default_rng(13)
        for n in np.concatenate([np.arange(1, 60), rng.uniform(1, 5000, size=100)]):
            p = an.AnalyticParams(node_count=50, bandwidth=1e6,
                                  neighborhood_bound=8, path_length=float(n))
            assert an.rtcc_balanced(an.DM, p).value <= an.rtcc_balanced(an.EDF, p).value

    def test_dm_converges_to_edf(self):
        def ratio(n):
            p = an.AnalyticParams(node_count=50, bandwidth=1e6,
                                  neighborhood_bound=8, path_length=n)
            return an.rtcc_balanced(an.DM, p).value / an.rtcc_balanced(an.EDF, p).value
        assert ratio(10) >= 0.95
        assert ratio(25) >= 0.98
        assert ratio(400) > ratio(25) > ratio(10)

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError):
            an.rtcc_balanced("LIFO", self.PARAMS)


# ---------------------------------------------------------------------------
# Convergecast capacity
# ---------------------------------------------------------------------------

class TestConvergecastDmSinkUtilization:
    def test_single_ring_closed_form(self):
        # one ring reduces to the single-hop balanced root scaled by m
        d = an.convergecast_dm_sink_utilization(10, 1)
        assert d == pytest.approx(10 * (2 - math.sqrt(2)), abs=1e-9)

    def test_two_rings_oracle(self):
        d = an.convergecast_dm_sink_utilization(10, 2)
        assert d == pytest.approx(5.222, abs=1e-2)
        assert d == pytest.approx(bisect_convergecast_root(10, 2), abs=1e-8)

    def test_residual_contract(self, monkeypatch):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rng.uniform(1, 100)
            k = int(rng.integers(1, 257))
            tol = 10.0 ** rng.uniform(-12, -6)
            monkeypatch.setattr(an, "_TOLERANCE", tol)
            d = an.convergecast_dm_sink_utilization(m, k)
            rings = (2 * np.arange(1, k + 1) - 1) * m
            resid = np.sum([an.stage_delay_term(d / r) for r in rings]) - 1.0
            assert abs(resid) <= tol
            assert 0 < d < m

    def test_unreachable_tolerance_raises_with_bracket(self, monkeypatch):
        monkeypatch.setattr(an, "_TOLERANCE", 1e-30)
        with pytest.raises(an.SolverError) as exc:
            an.convergecast_dm_sink_utilization(10, 4)
        err = exc.value
        assert err.iterations == 200
        assert 0 <= err.lo < err.hi <= 10

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.0, 100.0), st.integers(1, 256))
    @example(10.0, 1)
    @example(10.0, 256)
    @example(1.0, 1)
    @example(1.0, 256)
    @example(100.0, 1)
    def test_matches_bisection_oracle(self, m, k):
        # the suite's error::RuntimeWarning filter fails any step that
        # reaches the innermost ring's pole
        d = an.convergecast_dm_sink_utilization(m, k)
        assert 0 < d < m
        assert abs(d - bisect_convergecast_root(m, k)) <= 1e-8 * m

    def test_seeded_roots_pinned_bit_for_bit(self):
        # sha256 of the repr of 200 seeded roots: a faster form of the
        # solver's reductions or rings must keep every root bit for bit
        rng = np.random.default_rng(2026)
        draws = [(float(rng.uniform(1.0, 100.0)), int(rng.integers(1, 257)))
                 for _ in range(200)]
        roots = [an.convergecast_dm_sink_utilization(m, k) for m, k in draws]
        assert hashlib.sha256(repr(roots).encode()).hexdigest() == (
            "87a981de4fda4c5e9d195e3eb44654aa4d6b5477d0b28204c460357809275c53")

    def test_rejects_fractional_hops(self):
        with pytest.raises(ValueError):
            an.convergecast_dm_sink_utilization(10, 2.5)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_non_finite_disk_refused_by_name(self, m):
        with pytest.raises(ValueError, match=f"nodes_per_disk is not finite: {m!r}"):
            an.convergecast_dm_sink_utilization(m, 2)

    @pytest.mark.parametrize("m,message", [
        (0.5, "nodes_per_disk must be >= 1, got 0.5")], ids=["disk-below-1"])
    def test_out_of_range_refused(self, m, message):
        with pytest.raises(ValueError, match=message):
            an.convergecast_dm_sink_utilization(m, 2)


class TestHarmonicOddSum:
    def test_single_term(self):
        assert an.harmonic_odd_sum(1) == 1.0

    def test_three_terms(self):
        assert an.harmonic_odd_sum(3) == pytest.approx(1.533333, abs=1e-6)

    def test_hundred_terms(self):
        assert an.harmonic_odd_sum(100) == pytest.approx(3.284342, abs=1e-5)
        assert an.harmonic_odd_sum(100, an.APPROXIMATE) == pytest.approx(3.302585, abs=1e-5)

    def test_sums_pinned_bit_for_bit(self):
        # sha256 of the repr of K = 1..256, frozen as for the DM roots
        sums = [an.harmonic_odd_sum(k) for k in range(1, 257)]
        assert hashlib.sha256(repr(sums).encode()).hexdigest() == (
            "a560bda6cfba06313e7866a9f1be4ad130f30745cb76b0512abf3aa36c74624a")

    def test_matches_plain_loop(self):
        for k in (1, 2, 5, 37, 1000):
            assert an.harmonic_odd_sum(k) == pytest.approx(odd_harmonic_loop(k), rel=1e-12)

    def test_approximation_error_bounded(self):
        ks = sorted(set(list(range(1, 65)) +
                        [int(k) for k in np.logspace(0, 6, 40)]))
        for k in ks:
            assert abs(an.harmonic_odd_sum(k) - an.harmonic_odd_sum(k, an.APPROXIMATE)) <= 0.02

    @pytest.mark.parametrize("mode", [an.EXACT, an.APPROXIMATE])
    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_by_value(self, k, mode):
        # the approximate form gave nan or inf for these
        with pytest.raises(ValueError, match=f"max_hops is not finite: {k!r}"):
            an.harmonic_odd_sum(k, mode)

    @pytest.mark.parametrize("k,mode,message", [
        (0.5, an.EXACT, "max_hops must be >= 1, got 0.5"),
        (0, an.APPROXIMATE, "max_hops must be >= 1, got 0"),
        (2, "exakt", "unknown mode 'exakt'")],
        ids=["exact-below-1", "approximate-below-1", "unknown-mode"])
    def test_out_of_range_refused(self, k, mode, message):
        with pytest.raises(ValueError, match=message):
            an.harmonic_odd_sum(k, mode)

    def test_exact_mode_rejects_fraction(self):
        with pytest.raises(ValueError):
            an.harmonic_odd_sum(2.5, an.EXACT)
        # the closed form is defined for fractional hop counts
        assert an.harmonic_odd_sum(math.e ** 2, an.APPROXIMATE) == pytest.approx(2.0)


class TestConvergecastEdfSinkUtilization:
    def test_single_hop_saturates(self):
        util = an.convergecast_edf_sink_utilization(10, 1)
        assert util == pytest.approx(10.0)
        assert util > 1

    def test_hundred_hops(self):
        approx = an.convergecast_edf_sink_utilization(10, 100, an.APPROXIMATE)
        assert approx == pytest.approx(3.027935, abs=1e-5)
        exact = an.convergecast_edf_sink_utilization(10, 100)
        assert exact == pytest.approx(3.044748, abs=1e-5)
        assert exact > 1 and approx > 1

    def test_unsaturated_case(self):
        util = an.convergecast_edf_sink_utilization(1, 100)
        assert util < 1

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_non_finite_disk_refused_by_name(self, m):
        with pytest.raises(ValueError, match=f"nodes_per_disk is not finite: {m!r}"):
            an.convergecast_edf_sink_utilization(m, 2)

    def test_disk_below_one_refused(self):
        with pytest.raises(ValueError, match="nodes_per_disk must be >= 1, got 0.5"):
            an.convergecast_edf_sink_utilization(0.5, 2)

    def test_dm_root_never_exceeds_edf(self):
        # the DM stage factor dominates the identity, so its root is smaller
        rng = np.random.default_rng(19)
        for _ in range(40):
            m = rng.uniform(1, 100)
            k = int(rng.integers(1, 257))
            d_dm = an.convergecast_dm_sink_utilization(m, k)
            d_edf = an.convergecast_edf_sink_utilization(m, k)
            assert d_dm <= d_edf + 1e-9


class TestRtccConvergecast:
    def test_edf_approximate_example(self):
        p = an.AnalyticParams(node_count=1000, bandwidth=1000, inversion_factor=1.0,
                              nodes_per_disk=10, max_hops=math.e ** 2, sink_count=4)
        bound = an.rtcc_convergecast(an.EDF, p, mode=an.APPROXIMATE)
        assert bound.value == pytest.approx(14778.11, abs=0.1)

    def test_edf_single_hop(self):
        p = an.AnalyticParams(node_count=100, bandwidth=5000, inversion_factor=1.0,
                              nodes_per_disk=10, max_hops=1, sink_count=3)
        bound = an.rtcc_convergecast(an.EDF, p)
        assert bound.value == pytest.approx(3 * 5000)

    def test_gap_shrinks_with_hops(self):
        def rel_gap(k, edf_mode):
            p = an.AnalyticParams(node_count=1000, bandwidth=250_000,
                                  nodes_per_disk=10, max_hops=k, sink_count=1)
            dm = an.rtcc_convergecast(an.DM, p).value
            edf = an.rtcc_convergecast(an.EDF, p, mode=edf_mode).value
            return (edf - dm) / edf
        assert rel_gap(64, an.EXACT) < rel_gap(1, an.EXACT)
        assert rel_gap(64, an.APPROXIMATE) < rel_gap(4, an.APPROXIMATE)

    def test_dm_never_exceeds_edf_equal_mode(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = an.AnalyticParams(node_count=500, bandwidth=1e6,
                                  nodes_per_disk=float(rng.integers(1, 50)),
                                  max_hops=int(rng.integers(1, 65)),
                                  sink_count=int(rng.integers(1, 9)))
            for mode in (an.EXACT, an.APPROXIMATE):
                dm = an.rtcc_convergecast(an.DM, p, mode=mode).value
                edf = an.rtcc_convergecast(an.EDF, p, mode=mode).value
                assert dm <= edf * (1 + 1e-9)

    @pytest.mark.parametrize("scheduler,mode,message", [
        (an.DM, "exakt", "unknown mode 'exakt'"),
        ("LIFO", an.EXACT, "unknown scheduler 'LIFO'")],
        ids=["unknown-mode", "unknown-scheduler"])
    def test_unknown_setting_refused(self, scheduler, mode, message):
        p = an.AnalyticParams(node_count=100, bandwidth=1e6, nodes_per_disk=10,
                              max_hops=4)
        with pytest.raises(ValueError, match=message):
            an.rtcc_convergecast(scheduler, p, mode=mode)


class TestBalancedVsConvergecastRatio:
    def test_unity_at_single_hop(self):
        assert an.balanced_vs_convergecast_ratio(1) == 1.0

    def test_e_squared(self):
        assert an.balanced_vs_convergecast_ratio(math.e ** 2) == pytest.approx(2.0)

    def test_monotone(self):
        assert an.balanced_vs_convergecast_ratio(4) > an.balanced_vs_convergecast_ratio(2)
        ks = np.linspace(1, 300, 50)
        vals = [an.balanced_vs_convergecast_ratio(k) for k in ks]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestAnalyticParamsValidation:
    def test_inversion_factor_range(self):
        with pytest.raises(ValueError):
            an.AnalyticParams(node_count=1, bandwidth=1.0, inversion_factor=2.5)
        with pytest.raises(ValueError):
            an.AnalyticParams(node_count=1, bandwidth=1.0, inversion_factor=0.9)

    def test_positive_bandwidth(self):
        with pytest.raises(ValueError):
            an.AnalyticParams(node_count=1, bandwidth=0.0)

    @pytest.mark.parametrize("field", [
        "node_count", "bandwidth", "neighborhood_bound", "inversion_factor",
        "path_length", "nodes_per_disk", "max_hops", "sink_count"])
    def test_nan_refused(self, field):
        values = dict(node_count=1, bandwidth=1.0)
        values[field] = math.nan
        with pytest.raises(ValueError, match=field):
            an.AnalyticParams(**values)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", [
        "node_count", "bandwidth", "neighborhood_bound", "inversion_factor",
        "path_length", "nodes_per_disk", "max_hops", "sink_count"])
    def test_non_finite_refused_by_name(self, field, value):
        values = dict(node_count=1, bandwidth=1.0)
        values[field] = value
        with pytest.raises(ValueError, match=f"{field} is not finite"):
            an.AnalyticParams(**values)

    @pytest.mark.parametrize("field", [
        "neighborhood_bound", "path_length", "nodes_per_disk", "max_hops"])
    def test_below_one_refused_by_name(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            an.AnalyticParams(node_count=1, bandwidth=1.0, **{field: 0.5})

    def test_counts(self):
        with pytest.raises(ValueError):
            an.AnalyticParams(node_count=0, bandwidth=1.0)
        with pytest.raises(ValueError):
            an.AnalyticParams(node_count=1, bandwidth=1.0, sink_count=0)
