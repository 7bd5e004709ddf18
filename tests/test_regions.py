"""Confidence regions over the Gram noise and functional histograms."""

import numpy as np
import pytest

from dpms.errors import EmptyRegionError
from dpms.gram import GramChain, build_gram, enumerate_posterior, privatize_gram
from dpms.linmodel import (
    CenteredData,
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    reparametrize,
)
from dpms.mechanisms import LaplaceGramLaw, PrivacyBudget, Sensitivity, gram_law
from dpms.regions import (
    Functional,
    RegionConfig,
    RegionSamples,
    map_functional,
    region_contains,
    sample_region,
)


def toy_gram(p=2, n=200, seed=0, beta_scale=0.4):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-0.5, 0.5, size=(n, p))
    v -= v.mean(axis=0)
    z = v @ (beta_scale * np.ones(p)) + 0.1 * rng.standard_normal(n)
    z -= z.mean()
    return build_gram(CenteredData(z=z, v=v))


def laplace_chain(gram, epsilon=1.0, seed=1):
    return privatize_gram(gram, gram_law(gram.p, PrivacyBudget(epsilon), Sensitivity(l1=0.5), 0),
                          np.random.default_rng(seed))


class TestSampleRegion:
    def test_zero_noise_single_exact_candidate(self):
        gram = toy_gram()
        cfg = RegionConfig(alpha=0.05, nsamples=100)
        samples = sample_region(gram, cfg, np.random.default_rng(0))
        assert len(samples.candidates) == 1
        np.testing.assert_array_equal(samples.candidates[0], gram.g)

    def test_deterministic_given_seed(self):
        gram = toy_gram()
        chain = laplace_chain(gram)
        cfg = RegionConfig(alpha=0.05, nsamples=150)
        a = sample_region(chain, cfg, np.random.default_rng(7))
        b = sample_region(chain, cfg, np.random.default_rng(7))
        assert len(a.candidates) == len(b.candidates)
        for ca, cb in zip(a.candidates, b.candidates):
            np.testing.assert_array_equal(ca, cb)

    def test_all_candidates_positive_definite(self):
        gram = toy_gram()
        chain = laplace_chain(gram, epsilon=0.5)
        cfg = RegionConfig(alpha=0.05, nsamples=200)
        samples = sample_region(chain, cfg, np.random.default_rng(4))
        for g in samples.candidates:
            assert np.linalg.eigvalsh(g)[0] > 0

    def test_empty_region_error(self):
        g = -100.0 * np.eye(3)
        law = LaplaceGramLaw(2, 0.01, PrivacyBudget(1.0), seed=0)
        chain = GramChain(g_star=g, g=g, n=50, law=law)
        cfg = RegionConfig(alpha=0.05, nsamples=100)
        with pytest.raises(EmptyRegionError):
            sample_region(chain, cfg, np.random.default_rng(5))

    def test_laplace_box_coverage_quick(self):
        # The realized error lands in the acceptance box with probability
        # exactly 1 - alpha, so membership over replications is binomial.
        gram = toy_gram(seed=8)
        cfg = RegionConfig(alpha=0.10, nsamples=100)
        hits = 0
        reps = 400
        for i in range(reps):
            chain = laplace_chain(gram, seed=1000 + i)
            hits += region_contains(chain, gram.g, cfg)
        phat = hits / reps
        se = np.sqrt(0.9 * 0.1 / reps)
        assert abs(phat - 0.9) <= 3 * se

    def test_wishart_ball_contains_and_samples(self):
        gram = toy_gram(p=2, seed=9)
        chain = privatize_gram(gram, gram_law(2, PrivacyBudget(1.0, 0.3), Sensitivity(l2=0.9), 10),
                               np.random.default_rng(9))
        cfg = RegionConfig(alpha=0.2, nsamples=100)
        law = chain.law
        draws = [law.central_draws(cfg.alpha, 1, np.random.default_rng(100 + i))[0]
                 for i in range(20)]
        inside = sum(law.in_central_set(cfg.alpha, e) for e in draws)
        assert inside == 20
        assert law.ball_radius(cfg.alpha) > 0

    def test_non_pd_matrix_is_refused_before_the_ball_is_calibrated(self):
        gram = toy_gram(p=2, seed=9)
        law = gram_law(2, PrivacyBudget(1.0, 0.3), Sensitivity(l2=0.9), 10)
        chain = privatize_gram(gram, law, np.random.default_rng(9))
        assert not region_contains(chain, -np.eye(3), RegionConfig(alpha=0.2, nsamples=100))
        assert law._memo == {}

    def test_ball_calibration_leaves_the_region_stream_alone(self):
        # The radius replays stacks of the law's own calibration stream;
        # a fresh law and one calibrated beforehand draw the same region.
        gram = toy_gram(p=2, seed=9)
        cfg = RegionConfig(alpha=0.2, nsamples=100)
        fresh, calibrated = (gram_law(2, PrivacyBudget(1.0, 0.3), Sensitivity(l2=0.9), 10)
                             for _ in range(2))
        calibrated.ball_radius(cfg.alpha)
        streams, regions = [], []
        for law in (fresh, calibrated):
            chain = privatize_gram(gram, law, np.random.default_rng(9))
            rng = np.random.default_rng(11)
            regions.append(sample_region(chain, cfg, rng).candidates)
            streams.append(rng.random())
        np.testing.assert_array_equal(regions[0], regions[1])
        assert streams[0] == streams[1]


class TestMapFunctional:
    def test_identical_candidates_single_bin(self):
        gram = toy_gram(p=2, seed=11)
        samples = RegionSamples([gram.g.copy(), gram.g.copy()], 0, gram.n)
        hist = map_functional(samples, Functional.inclusion(0),
                              InfoCriterionSpec.bic())
        assert (hist.counts > 0).sum() == 1
        assert hist.accepted == 2

    def test_inclusion_values_in_unit_interval(self):
        gram = toy_gram(p=2, seed=12)
        chain = laplace_chain(gram, seed=12)
        cfg = RegionConfig(alpha=0.05, nsamples=120)
        samples = sample_region(chain, cfg, np.random.default_rng(12))
        hist = map_functional(samples, Functional.inclusion(1),
                              InfoCriterionSpec.bic())
        assert np.all((hist.samples >= 0) & (hist.samples <= 1))
        assert 0.0 <= hist.mean <= 1.0
        assert hist.bin_edges[0] == 0.0 and hist.bin_edges[-1] == 1.0

    def test_zero_noise_histogram_mean_equals_oracle(self):
        gram = toy_gram(p=2, seed=13)
        cfg = RegionConfig(alpha=0.05, nsamples=100)
        samples = sample_region(gram, cfg, np.random.default_rng(13))
        stat = GPriorSpec.sample_size()
        hist = map_functional(samples, Functional.inclusion(0), stat)
        oracle = enumerate_posterior(gram.g, stat, n=gram.n)
        assert hist.mean == pytest.approx(float(oracle.inclusion[0]), abs=1e-10)
        assert hist.samples.max() - hist.samples.min() == 0.0

    def test_beta_functional_uses_observed_range(self):
        gram = toy_gram(p=2, seed=14)
        chain = laplace_chain(gram, seed=14)
        cfg = RegionConfig(alpha=0.05, nsamples=100)
        samples = sample_region(chain, cfg, np.random.default_rng(14))
        hist = map_functional(samples, Functional.beta(0), InfoCriterionSpec.bic())
        assert hist.counts.sum() == hist.accepted

    @pytest.mark.parametrize("stat", [InfoCriterionSpec.bic(), GPriorSpec.sample_size()],
                             ids=["bic", "g"])
    def test_sure_inclusion_stays_in_unit_bins(self, stat):
        # Summed posterior masses of a predictor every likely model holds
        # can round to 1 + 2^-52, which the fixed [0, 1] bins would drop.
        rng = np.random.default_rng(4)
        n, p = 5000, 5
        x = rng.uniform(-0.5, 0.5, size=(n, p))
        y = x @ np.array([0.6, -0.5, 0.4, 0.0, 0.0]) + 0.1 * rng.standard_normal(n)
        chain = build_gram(reparametrize(RegressionData(y=y, x0=np.ones((n, 1)), x=x)))
        assert np.all(enumerate_posterior(chain.g, stat, n=chain.n).inclusion <= 1.0)
        samples = sample_region(chain, RegionConfig(alpha=0.05, nsamples=100), rng)
        hist = map_functional(samples, Functional.inclusion(0), stat)
        assert hist.counts.sum() == hist.accepted


def test_histogram_mean_reference_values():
    # The histogram mean is the exact mean of the candidates' values, not
    # a binned approximation.
    grams = [toy_gram(p=2, seed=s).g for s in (20, 21, 22)]
    stat = InfoCriterionSpec.bic()
    hist = map_functional(RegionSamples(grams, 0, 200), Functional.beta(0), stat)
    want = [enumerate_posterior(g, stat, n=200).beta_avg[0] for g in grams]
    assert hist.mean == pytest.approx(sum(want) / 3, rel=1e-15)
