"""Splitting, censoring, aggregation, and posterior probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpms.errors import ConfigError, RankError, SplitInfeasibleError
from dpms.io import hsb2_path, read_numeric_columns
from dpms.linmodel import (
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    log_bayes_factor,
    log_info_criterion,
    r_squared,
    reparametrize,
)
from dpms.mechanisms import PrivacyBudget, subsample_noise_scale
from dpms.split_aggregate import (
    CensorBounds,
    SplitPlan,
    aggregate_private,
    censor,
    default_bounds,
    make_split,
    per_subset_log_stats,
    posterior_probability,
    split_sizes,
)


class TestMakeSplit:
    def test_even_split(self):
        plan = make_split(10, 2, 1, seed=0)
        assert sorted(plan.sizes.tolist()) == [5, 5]

    def test_remainder_goes_to_leading_blocks(self):
        plan = make_split(11, 2, 1, seed=0)
        assert plan.sizes.tolist() == [6, 5]

    def test_deterministic(self):
        a = make_split(100, 7, 2, seed=42)
        b = make_split(100, 7, 2, seed=42)
        assert np.array_equal(a.assignment, b.assignment)

    def test_partition_is_disjoint_and_complete(self):
        plan = make_split(97, 5, 3, seed=1)
        seen = np.concatenate([plan.rows(i) for i in range(5)])
        assert np.array_equal(np.sort(seen), np.arange(97))

    def test_split_sizes_match_the_plan(self):
        for n, M in ((10, 2), (11, 2), (97, 5), (1000, 7), (5, 5)):
            sizes = split_sizes(n, M)
            assert sizes.sum() == n and sizes.max() - sizes.min() <= 1
            assert np.all(np.diff(sizes) <= 0)
            assert np.array_equal(make_split(n, M, 1, seed=3).sizes, sizes)

    def test_assignment_matches_block_loop(self):
        n, M, seed = 103, 6, 9
        sizes = split_sizes(n, M)
        perm = np.random.default_rng(seed).permutation(n)
        want = np.empty(n, dtype=np.int64)
        for i, (lo, hi) in enumerate(zip(np.cumsum(sizes) - sizes, np.cumsum(sizes))):
            want[perm[lo:hi]] = i
        assert np.array_equal(make_split(n, M, 1, seed=seed).assignment, want)

    def test_split_sizes_validation(self):
        with pytest.raises(ConfigError):
            split_sizes(10, 0)
        with pytest.raises(ConfigError):
            split_sizes(0, 3)

    def test_assignment_outside_subsets_rejected(self):
        for bad in ([0, 1, 2, 1], [0, -1, 1, 1]):
            with pytest.raises(ConfigError, match="0..1"):
                SplitPlan(M=2, assignment=np.array(bad), seed=0)

    def test_infeasible_sizes(self):
        with pytest.raises(SplitInfeasibleError):
            make_split(10, 4, 3, seed=0)


class TestCensor:
    def test_clamps_above(self):
        b = default_bounds()
        assert censor(5.0, b) == pytest.approx(math.log(99.0), abs=1e-9)

    def test_interior_untouched(self):
        assert censor(0.0, default_bounds()) == 0.0

    def test_clamps_below(self):
        assert censor(-10.0, CensorBounds(-4.595, 4.595)) == -4.595

    def test_bounds_validation(self):
        with pytest.raises(ConfigError):
            CensorBounds(1.0, 1.0)
        with pytest.raises(ConfigError):
            CensorBounds(0.0, math.inf)


class TestPerSubsetLogStats:
    def test_single_subset_equals_global_statistic(self):
        rng = np.random.default_rng(0)
        data = RegressionData(y=rng.standard_normal(60), x0=np.ones((60, 1)),
                              x=rng.standard_normal((60, 2)))
        plan = make_split(60, 1, 4, seed=0)
        got = per_subset_log_stats(data, plan, GPriorSpec.sample_size())
        r2 = r_squared(reparametrize(data))
        assert got[0] == pytest.approx(
            log_bayes_factor(r2, 60, 2, 1, GPriorSpec.fixed(60.0)), abs=1e-12
        )

    def test_identical_subsets_give_identical_entries(self):
        rng = np.random.default_rng(1)
        half_y = rng.standard_normal(20)
        half_x = rng.standard_normal(20)
        data = RegressionData(y=np.concatenate([half_y, half_y]),
                              x0=np.ones((40, 1)),
                              x=np.concatenate([half_x, half_x]))
        assignment = np.array([0] * 20 + [1] * 20)
        plan = SplitPlan(M=2, assignment=assignment, seed=0)
        got = per_subset_log_stats(data, plan, InfoCriterionSpec.bic())
        assert got[0] == pytest.approx(got[1], abs=1e-12)

    def test_fixture_halves_match_standalone_regressions(self):
        cols = read_numeric_columns(hsb2_path())
        data = RegressionData(y=cols["math"], x0=np.ones((200, 1)), x=cols["gender"])
        plan = make_split(200, 2, 3, seed=11)
        got = per_subset_log_stats(data, plan, InfoCriterionSpec.bic())
        for i in range(2):
            rows = plan.rows(i)
            y, x = cols["math"][rows], cols["gender"][rows]
            xc = x - x.mean()
            yc = y - y.mean()
            r2 = float((xc @ yc) ** 2 / ((xc @ xc) * (yc @ yc)))
            want = log_info_criterion(r2, rows.size, 1, InfoCriterionSpec.bic())
            assert got[i] == pytest.approx(want, abs=1e-10)

    def test_rank_deficient_subset_names_index(self):
        y = np.arange(12, dtype=float)
        x = np.concatenate([np.ones(6), np.arange(6, dtype=float)])
        data = RegressionData(y=y, x0=np.ones((12, 1)), x=x)
        plan = SplitPlan(M=2, assignment=np.array([0] * 6 + [1] * 6), seed=0)
        with pytest.raises(RankError, match="subset 0"):
            per_subset_log_stats(data, plan, InfoCriterionSpec.bic())


_ALL_STATS = [GPriorSpec.sample_size(), GPriorSpec.fixed(25.0), GPriorSpec.zellner_siow(),
              InfoCriterionSpec.bic(), InfoCriterionSpec.aic(), InfoCriterionSpec.lrt()]


def _loop_reference(data, plan, stat):
    """Per-subset QR projections and the scalar statistic, one subset at a time."""
    out = np.empty(plan.M)
    for i in range(plan.M):
        rows = np.flatnonzero(plan.assignment == i)
        q, _ = np.linalg.qr(data.x0[rows])
        z = data.y[rows] - q @ (q.T @ data.y[rows])
        v = data.x[rows] - q @ (q.T @ data.x[rows])
        qv, _ = np.linalg.qr(v)
        r2 = float(np.sum((qv.T @ z) ** 2) / (z @ z))
        if isinstance(stat, GPriorSpec):
            out[i] = log_bayes_factor(r2, rows.size, data.p, data.p0, stat)
        else:
            out[i] = log_info_criterion(r2, rows.size, data.p, stat)
    return out


def _regression(n, p0, p, seed):
    rng = np.random.default_rng(seed)
    x0 = np.column_stack([np.ones(n), rng.standard_normal((n, p0 - 1))])
    x = rng.standard_normal((n, p))
    y = x0 @ rng.standard_normal(p0) + x @ rng.normal(0.0, 0.1, p) + rng.standard_normal(n)
    return RegressionData(y=y, x0=x0, x=x)


class TestBatchedPerSubsetStats:
    @pytest.mark.parametrize("stat", _ALL_STATS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("n, M", [(1003, 7), (1000, 1), (600, 40)])
    def test_matches_per_subset_loop(self, stat, n, M):
        data = _regression(n, 3, 2, seed=n + M)
        plan = make_split(n, M, data.p + data.p0 + 1, seed=M)
        got = per_subset_log_stats(data, plan, stat)
        np.testing.assert_allclose(got, _loop_reference(data, plan, stat), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("stat", _ALL_STATS, ids=lambda s: s.kind)
    def test_three_subset_sizes(self, stat):
        data = _regression(60, 2, 3, seed=5)
        assignment = np.random.default_rng(6).permutation(np.repeat([0, 1, 2, 3], [12, 20, 8, 20]))
        plan = SplitPlan(M=4, assignment=assignment, seed=0)
        got = per_subset_log_stats(data, plan, stat)
        np.testing.assert_allclose(got, _loop_reference(data, plan, stat), rtol=1e-12, atol=0)

    def test_subset_with_too_few_rows_names_it(self):
        data = _regression(40, 1, 2, seed=8)
        plan = SplitPlan(M=3, assignment=np.array([0] * 18 + [1] * 3 + [2] * 19), seed=0)
        with pytest.raises(RankError, match=r"subset 1 of the split is unusable: need n > p \+ p0"):
            per_subset_log_stats(data, plan, GPriorSpec.sample_size())

    def test_empty_subset_names_it(self):
        data = _regression(40, 1, 2, seed=8)
        plan = SplitPlan(M=3, assignment=np.array([0] * 20 + [2] * 20), seed=0)
        with pytest.raises(RankError, match="subset 1 of the split"):
            per_subset_log_stats(data, plan, InfoCriterionSpec.bic())

    @pytest.mark.parametrize("level", [0.0, 3.0, -1.7e4])
    def test_constant_response_subset_names_it(self, level):
        data = _regression(60, 2, 2, seed=9)
        y = data.y.copy()
        y[40:] = level
        data = RegressionData(y=y, x0=data.x0, x=data.x)
        plan = SplitPlan(M=3, assignment=np.repeat([0, 1, 2], 20), seed=0)
        with pytest.raises(RankError, match="subset 2 .*zero sum of squares"):
            per_subset_log_stats(data, plan, GPriorSpec.zellner_siow())

    def test_first_failing_subset_is_named_across_sizes(self):
        data = _regression(50, 1, 2, seed=10)
        x = data.x.copy()
        x[30:, 1] = 2.0 * x[30:, 0]  # subsets 2 and 3 rank deficient
        data = RegressionData(y=data.y, x0=data.x0, x=x)
        assignment = np.array([0] * 12 + [1] * 18 + [3] * 8 + [2] * 12)
        plan = SplitPlan(M=4, assignment=assignment, seed=0)
        with pytest.raises(RankError, match=r"subset 2 .*\[x0 x\] is rank deficient"):
            per_subset_log_stats(data, plan, InfoCriterionSpec.bic())


class TestAggregatePrivate:
    def test_zero_noise_equals_common_value(self):
        bounds = default_bounds()
        res = aggregate_private(np.full(7, 1.3), bounds, PrivacyBudget(1.0),
                                np.random.default_rng(0), with_noise=False)
        assert res.log_bstar == 1.3
        assert res.log_bstar_censored == 1.3

    def test_zero_noise_negation_antisymmetry_bitwise(self):
        rng = np.random.default_rng(2)
        stats = rng.normal(0.0, 3.0, size=9)
        bounds = default_bounds()
        fwd = aggregate_private(stats, bounds, PrivacyBudget(1.0),
                                np.random.default_rng(0), with_noise=False)
        rev = aggregate_private(-stats, bounds.reflected(), PrivacyBudget(1.0),
                                np.random.default_rng(0), with_noise=False)
        assert rev.log_bstar == -fwd.log_bstar

    def test_interquartile_range_of_noise(self):
        # Noise is Laplace with scale (U-L)/(M eps) = 0.919024, IQR 2 b log 2.
        bounds = default_bounds()
        rng = np.random.default_rng(3)
        stats = np.zeros(10)
        draws = np.array([
            aggregate_private(stats, bounds, PrivacyBudget(1.0), rng).log_bstar
            for _ in range(20_000)
        ])
        scale = (bounds.U - bounds.L) / 10.0
        iqr = np.quantile(draws, 0.75) - np.quantile(draws, 0.25)
        assert iqr == pytest.approx(2 * scale * math.log(2.0), abs=0.03)

    def test_censored_output_respects_bounds(self):
        bounds = CensorBounds(-1.0, 1.0)
        res = aggregate_private(np.array([0.9, 0.95]), bounds, PrivacyBudget(0.01),
                                np.random.default_rng(5))
        assert bounds.L <= res.log_bstar_censored <= bounds.U

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_private(np.array([]), default_bounds(), PrivacyBudget(1.0),
                              np.random.default_rng(0))

    def test_private_record_hides_per_subset_values(self):
        res = aggregate_private(np.array([0.5, -0.5]), default_bounds(),
                                PrivacyBudget(1.0), np.random.default_rng(0))
        record = res.to_record(pi0=0.5, seed=1, private=True)
        assert "per_subset_logs" not in record
        assert set(record) == {"log_bstar", "log_bstar_censored", "p_h0", "p_h1",
                               "epsilon", "delta", "M", "L", "U", "mechanism", "seed"}
        diag = res.to_record(pi0=0.5, seed=1, private=False)
        assert "per_subset_logs" in diag


# A well-conditioned dataset and a fixed split for the neighbour test.
_NEIGHBOUR_DATA = _regression(60, 1, 2, seed=11)
_NEIGHBOUR_PLAN = make_split(60, 5, 4, seed=12)


def _column_value(column):
    return st.floats(float(column.min()), float(column.max()))


@settings(max_examples=50, deadline=None)
@given(row=st.integers(0, 59), y=_column_value(_NEIGHBOUR_DATA.y),
       x1=_column_value(_NEIGHBOUR_DATA.x[:, 0]), x2=_column_value(_NEIGHBOUR_DATA.x[:, 1]),
       epsilon=st.floats(0.01, 10.0))
def test_neighbour_moves_the_noiseless_release_by_at_most_the_declared_width(
        row, y, x1, x2, epsilon):
    """Replacing one row by a row inside the data's range moves one
    subset's censored statistic, so the mean by at most (U - L)/M, the
    sensitivity the Laplace scale (U - L)/(M epsilon) is calibrated to."""
    data, plan, bounds = _NEIGHBOUR_DATA, _NEIGHBOUR_PLAN, CensorBounds(-1.0, 2.0)
    neighbour_y, neighbour_x = data.y.copy(), data.x.copy()
    neighbour_y[row], neighbour_x[row] = y, (x1, x2)
    neighbour = RegressionData(y=neighbour_y, x0=data.x0, x=neighbour_x)
    budget, stat = PrivacyBudget(epsilon), GPriorSpec.sample_size()
    released = [
        aggregate_private(per_subset_log_stats(d, plan, stat), bounds, budget,
                          np.random.default_rng(0), with_noise=False)
        for d in (data, neighbour)
    ]
    assert abs(released[1].log_bstar - released[0].log_bstar) <= bounds.width / plan.M + 1e-12
    law = subsample_noise_scale(bounds, plan.M, budget)
    assert law == released[0].law
    assert law.mechanism == "laplace"
    assert law.scale == pytest.approx(bounds.width / (plan.M * epsilon), rel=1e-14)


class TestPosteriorProbability:
    def test_equal_support(self):
        assert posterior_probability(0.0, 0.5) == pytest.approx(0.5)

    def test_bayes_rule_reference(self):
        assert posterior_probability(math.log(3.0), 0.5) == pytest.approx(0.25)

    def test_degenerate_priors(self):
        assert posterior_probability(10.0, 1.0) == 1.0
        assert posterior_probability(10.0, 0.0) == 0.0

    def test_strictly_decreasing_in_log_bstar(self):
        vals = [posterior_probability(x, 0.3) for x in np.linspace(-5, 5, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_extreme_values_stable(self):
        assert posterior_probability(1e6, 0.5) == pytest.approx(0.0, abs=1e-300)
        assert posterior_probability(-1e6, 0.5) == pytest.approx(1.0)

    def test_invalid_pi0(self):
        with pytest.raises(ConfigError):
            posterior_probability(0.0, 1.5)
