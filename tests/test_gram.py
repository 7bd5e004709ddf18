"""Gram construction, privatization, post-processing, and enumeration."""

import math

import numpy as np
import pytest

from dpms import mechanisms
from dpms.datagen import SimStudyConfig, generate_sim_dataset
from dpms.errors import ConfigError, DegenerateResponseError, RepairFailureError
from dpms.gram import (
    GramChain,
    build_gram,
    enumerate_posterior,
    model_averaged_beta,
    model_prior_log,
    pd_repair,
    privatize_gram,
    r2_clamp_counter,
    r2_gamma,
    synthetic_dataset,
    threshold_offdiagonal,
)
from dpms.linmodel import (
    CenteredData,
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    log_bayes_factor,
    r_squared,
    reparametrize,
    zs_shrinkage,
)
from dpms.mechanisms import LaplaceGramLaw, PrivacyBudget, Sensitivity, ZeroGramLaw, gram_law


def toy_centered(n=50, p=4, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, p))
    v -= v.mean(axis=0)
    z = v @ rng.standard_normal(p) * 0.3 + rng.standard_normal(n)
    z -= z.mean()
    return CenteredData(z=z, v=v)


class TestBuildGram:
    def test_orthonormal_blocks(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 3)))
        ones = np.ones(20) / math.sqrt(20)
        # Make columns orthogonal to the intercept direction as well.
        q -= np.outer(ones, ones @ q)
        q, _ = np.linalg.qr(q)
        z = np.random.default_rng(1).standard_normal(20)
        z -= q @ (q.T @ z)
        z /= np.linalg.norm(z)
        g = build_gram(CenteredData(z=z, v=q)).g
        np.testing.assert_allclose(g[:3, :3], np.eye(3), atol=1e-12)
        assert g[3, 3] == pytest.approx(1.0, abs=1e-12)

    def test_psd(self):
        g = build_gram(toy_centered()).g
        assert np.linalg.eigvalsh(g)[0] >= -1e-10 * np.trace(g)

    def test_matches_triple_loop_oracle(self):
        c = toy_centered(n=50, p=4, seed=3)
        d = np.column_stack([c.v, c.z])
        want = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                for k in range(50):
                    want[i, j] += d[k, i] * d[k, j]
        np.testing.assert_allclose(build_gram(c).g, want, atol=1e-12 * np.abs(want).max())

    def test_degenerate_response(self):
        with pytest.raises(DegenerateResponseError):
            build_gram(CenteredData(z=np.zeros(10), v=np.ones((10, 1))))


class TestPrivatizeGram:
    def test_zero_noise_hook_is_exact(self):
        chain = build_gram(toy_centered())
        assert isinstance(chain.law, ZeroGramLaw)
        assert np.array_equal(chain.g_star, chain.g)

    def test_noisy_chain_is_config_error(self):
        law = gram_law(4, PrivacyBudget(1.0), Sensitivity(l1=0.5), 0)
        chain = privatize_gram(build_gram(toy_centered()), law, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="already carries laplace noise"):
            privatize_gram(chain, law, np.random.default_rng(1))

    def test_law_of_another_dimension_is_config_error(self):
        law = gram_law(3, PrivacyBudget(1.0), Sensitivity(l1=0.5), 0)
        with pytest.raises(ConfigError, match="p = 3"):
            privatize_gram(build_gram(toy_centered(p=4)), law, np.random.default_rng(0))

    def test_wishart_shift_is_psd_per_draw(self):
        gram = build_gram(toy_centered(p=2))
        law = gram_law(2, PrivacyBudget(1.0, 0.2), Sensitivity(l2=1.0), 0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            chain = privatize_gram(gram, law, rng)
            e = chain.g_star - gram.g
            shifted = e + chain.law.k * 1.0 * np.eye(3)
            assert np.linalg.eigvalsh(shifted)[0] >= -1e-8 * np.trace(shifted)

    def test_laplace_entry_variance(self):
        # p=2, eps=1, per-entry sensitivity 2 l1^2 = 1: scale (3*4)/2 = 6,
        # variance 72.
        gram = build_gram(toy_centered(p=2))
        rng = np.random.default_rng(5)
        iu = np.triu_indices(3)
        law = gram_law(2, PrivacyBudget(1.0), Sensitivity(l1=math.sqrt(0.5)), 0)
        entries = []
        for _ in range(10_000):
            chain = privatize_gram(gram, law, rng)
            entries.append((chain.g_star - gram.g)[iu])
        assert np.concatenate(entries).var() == pytest.approx(72.0, rel=0.1)

    def test_missing_sensitivity_is_config_error(self):
        gram = build_gram(toy_centered())
        with pytest.raises(ConfigError):
            privatize_gram(gram, gram_law(gram.p, PrivacyBudget(1.0), Sensitivity(), 0),
                           np.random.default_rng(0))
        with pytest.raises(ConfigError):
            privatize_gram(gram, gram_law(gram.p, PrivacyBudget(1.0, 0.1), Sensitivity(l1=1.0), 0),
                           np.random.default_rng(0))

    def test_default_per_entry_sensitivity_is_twice_bound_squared(self):
        gram = build_gram(toy_centered(p=1))
        chain = privatize_gram(gram, gram_law(1, PrivacyBudget(2.0), Sensitivity(l1=0.5), 0),
                               np.random.default_rng(0))
        # 2 * 0.5^2 = 0.5 per entry; scale = 0.5 * (2*3)/(2*2) = 0.75.
        assert chain.law.scale == pytest.approx(0.75)


class TestThresholdOffdiagonal:
    def _chain(self, seed=6, p=3, eps=1.0):
        gram = build_gram(toy_centered(p=p, seed=seed))
        law = gram_law(p, PrivacyBudget(eps), Sensitivity(l1=0.5), seed)
        return gram, privatize_gram(gram, law, np.random.default_rng(seed))

    def test_tiny_lambda_keeps_everything(self):
        _, chain = self._chain()
        out = threshold_offdiagonal(chain, 1e-9)
        np.testing.assert_array_equal(out.g, chain.g_star)

    def test_huge_threshold_leaves_diagonal(self):
        _, chain = self._chain(eps=1e6)  # nearly noiseless, small entries
        out = threshold_offdiagonal(chain, 99.9999999)
        off = out.g[~np.eye(out.g.shape[0], dtype=bool)]
        diag_preserved = np.diag(out.g) == np.diag(chain.g_star)
        assert diag_preserved.all()
        assert out.e_lambda > 0

    def test_laplace_closed_form_percentile(self):
        _, chain = self._chain()
        out = threshold_offdiagonal(chain, 99.0)
        assert out.e_lambda == pytest.approx(chain.law.scale * math.log(100.0),
                                             rel=1e-12)

    def test_nonzero_count_monotone_in_lambda(self):
        _, chain = self._chain()
        counts = []
        for lam in (1.0, 50.0, 90.0, 99.0, 99.99):
            out = threshold_offdiagonal(chain, lam)
            off = out.g[~np.eye(out.g.shape[0], dtype=bool)]
            counts.append(int(np.count_nonzero(off)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_wishart_percentile_via_monte_carlo(self):
        gram = build_gram(toy_centered(p=2, seed=7))
        chain = privatize_gram(gram, gram_law(2, PrivacyBudget(1.0, 0.3), Sensitivity(l2=1.0), 8),
                               np.random.default_rng(7))
        out = threshold_offdiagonal(chain, 95.0)
        # Off-diagonal entries have variance k for unit scale: the 95th
        # percentile of the absolute value is near 1.96 sqrt(k).
        assert out.e_lambda == pytest.approx(1.96 * math.sqrt(chain.law.k), rel=0.05)


class TestLawCalibration:
    """A law computes its repair shift and off-diagonal quantile once,
    from its own calibration stream, and every chain of it shares them."""

    def test_twenty_chains_draw_the_repair_calibration_once(self, monkeypatch):
        calls = []

        def counted(law, n, rng):
            calls.append(n)
            return real(law, n, rng)

        real = mechanisms.draw_chunks
        monkeypatch.setattr(mechanisms, "draw_chunks", counted)
        gram = build_gram(toy_centered(p=3))
        law = gram_law(3, PrivacyBudget(1.0), Sensitivity(l1=0.5), 5)
        rng = np.random.default_rng(0)
        chains = [pd_repair(privatize_gram(gram, law, rng)) for _ in range(20)]
        assert len(chains) == 20
        assert calls == [mechanisms.REPAIR_DRAWS]

    def test_calibrations_do_not_depend_on_the_release_stream_or_order(self):
        gram = build_gram(toy_centered(p=2))
        first, second = (gram_law(2, PrivacyBudget(1.0, 0.3), Sensitivity(l2=1.0), 7)
                         for _ in range(2))
        a = pd_repair(threshold_offdiagonal(
            privatize_gram(gram, first, np.random.default_rng(1)), 99.0))
        b = threshold_offdiagonal(
            pd_repair(privatize_gram(gram, second, np.random.default_rng(2))), 99.0)
        assert not np.array_equal(a.g_star, b.g_star)
        assert a.e_lambda == b.e_lambda
        assert first.repair_shift == second.repair_shift

    def test_another_law_seed_gives_another_repair_shift(self):
        shifts = [gram_law(2, PrivacyBudget(1.0), Sensitivity(l1=0.5), seed).repair_shift
                  for seed in (1, 2)]
        assert shifts[0] != shifts[1]

    def test_escalation_stays_per_chain(self):
        law = LaplaceGramLaw(1, 0.1, PrivacyBudget(1.0), seed=3)
        bad, good = np.diag([-5.0, 1.0]), 10.0 * np.eye(2)
        escalated = pd_repair(GramChain(g_star=bad, g=bad, n=10, law=law))
        sibling = pd_repair(GramChain(g_star=good, g=good, n=10, law=law))
        assert law.repair_shift < 5.0
        assert escalated.r == 15.0
        assert sibling.r == law.repair_shift


class TestPdRepair:
    def test_fixed_zero_on_pd_matrix_is_identity(self):
        gram = build_gram(toy_centered())
        chain = pd_repair(gram, r=0.0)
        np.testing.assert_array_equal(chain.g, gram.g)

    def test_eigenvalue_shift_identity(self):
        base = np.diag([-2.0, 5.0])
        chain = GramChain(g_star=base, g=base, n=10, law=ZeroGramLaw(1))
        out = pd_repair(chain, r=3.0)
        assert np.linalg.eigvalsh(out.g)[0] == pytest.approx(1.0, abs=1e-12)

    def test_fixed_r_that_fails_raises(self):
        base = np.diag([-2.0, 5.0])
        chain = GramChain(g_star=base, g=base, n=10, law=ZeroGramLaw(1))
        with pytest.raises(RepairFailureError):
            pd_repair(chain, r=1.0)

    def test_auto_policy_repairs_identity_gram(self):
        g = np.eye(3)
        rng = np.random.default_rng(9)
        law = LaplaceGramLaw(2, 6.0, PrivacyBudget(1.0), seed=9)
        ok = 0
        for trial in range(1000):
            noisy = g + 6.0 * rng.laplace(size=(3, 3))
            noisy = 0.5 * (noisy + noisy.T)
            chain = GramChain(g_star=noisy, g=noisy, n=100, law=law)
            out = pd_repair(chain)
            ok += np.linalg.eigvalsh(out.g)[0] > 0
        assert ok == 1000


class TestSyntheticDataset:
    def test_reproduces_gram_exactly(self):
        gram = build_gram(toy_centered(p=3))
        g_reg = pd_repair(gram, r=0.0).g
        d_star = synthetic_dataset(g_reg, 80, np.random.default_rng(1))
        err = np.abs(d_star.T @ d_star - g_reg).max()
        assert err <= 1e-8 * np.abs(g_reg).max()

    def test_columns_are_centered(self):
        gram = build_gram(toy_centered(p=3))
        d_star = synthetic_dataset(gram.g, 60, np.random.default_rng(2))
        assert np.abs(d_star.sum(axis=0)).max() <= 1e-8

    def test_row_count_does_not_change_submodel_r2(self):
        gram = build_gram(toy_centered(p=3, seed=11))
        a = synthetic_dataset(gram.g, 40, np.random.default_rng(3))
        b = synthetic_dataset(gram.g, 400, np.random.default_rng(4))
        for gamma in range(1 << 3):
            ra = r2_gamma(a.T @ a, gamma)
            rb = r2_gamma(b.T @ b, gamma)
            assert ra == pytest.approx(rb, abs=1e-9)

    def test_posterior_from_synthetic_rows_matches_released_gram(self):
        gram = build_gram(toy_centered(p=3, seed=23))
        chain = privatize_gram(gram, gram_law(3, PrivacyBudget(5.0), Sensitivity(l1=1.0), 6),
                               np.random.default_rng(5))
        chain = pd_repair(chain)
        d_star = synthetic_dataset(chain.g, 100, np.random.default_rng(7))
        stat = GPriorSpec.sample_size()
        direct = enumerate_posterior(chain.g, stat, n=chain.n)
        via_rows = enumerate_posterior(d_star.T @ d_star, stat, n=gram.n)
        np.testing.assert_allclose(via_rows.posterior, direct.posterior, atol=1e-8)
        np.testing.assert_allclose(via_rows.inclusion, direct.inclusion, atol=1e-8)

    def test_needs_enough_rows(self):
        with pytest.raises(ConfigError):
            synthetic_dataset(np.eye(4), 4, np.random.default_rng(0))


class TestR2Gamma:
    def test_null_model_is_zero(self):
        gram = build_gram(toy_centered())
        assert r2_gamma(gram.g, 0) == 0.0

    def test_full_model_matches_direct_r_squared(self):
        c = toy_centered(p=4, seed=12)
        gram = build_gram(c)
        full = (1 << 4) - 1
        assert r2_gamma(gram.g, full) == pytest.approx(r_squared(c), abs=1e-10)

    def test_single_predictor_matches_simple_regression(self):
        c = toy_centered(p=3, seed=13)
        gram = build_gram(c)
        for j in range(3):
            vj = c.v[:, j]
            want = float((vj @ c.z) ** 2 / ((vj @ vj) * (c.z @ c.z)))
            assert r2_gamma(gram.g, 1 << j) == pytest.approx(want, abs=1e-10)

    def test_clamps_and_counts_non_pd_input(self):
        r2_clamp_counter.reset()
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # w'S^{-1}w = 4 > zz = 1
        got = r2_gamma(bad, 1)
        assert got == pytest.approx(1.0 - 1e-12)
        assert r2_clamp_counter.count == 1
        r2_clamp_counter.reset()


class TestModelPrior:
    def test_hierarchical_p2_masses(self):
        masses = [math.exp(model_prior_log(g, 2, "hierarchical")) for g in range(4)]
        np.testing.assert_allclose(masses, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-12)

    def test_uniform_p3(self):
        assert math.exp(model_prior_log(5, 3, "uniform")) == pytest.approx(1 / 8)

    @pytest.mark.parametrize("kind", ["uniform", "hierarchical"])
    @pytest.mark.parametrize("p", [1, 4, 8, 12])
    def test_prior_normalizes(self, kind, p):
        total = sum(math.exp(model_prior_log(g, p, kind)) for g in range(1 << p))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestEnumeratePosterior:
    def test_posterior_normalizes(self):
        gram = build_gram(toy_centered(p=4, seed=14))
        post = enumerate_posterior(gram.g, GPriorSpec.sample_size(), n=gram.n)
        assert post.posterior.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((post.inclusion >= 0) & (post.inclusion <= 1))

    def test_zero_crossblock_prefers_null_under_bic(self):
        g = np.eye(4) * 10.0
        post = enumerate_posterior(g, InfoCriterionSpec.bic(), n=100)
        assert post.top_model() == 0
        np.testing.assert_allclose(post.beta_avg, 0.0, atol=1e-12)

    def test_two_model_hand_computation(self):
        c = toy_centered(p=1, seed=15)
        gram = build_gram(c)
        stat = GPriorSpec.fixed(50.0)
        post = enumerate_posterior(gram.g, stat, "uniform", n=gram.n)
        r2 = r_squared(c)
        lb = log_bayes_factor(r2, c.n, 1, 1, stat)
        want_alt = 1.0 / (1.0 + math.exp(-lb))
        assert post.posterior[1] == pytest.approx(want_alt, abs=1e-12)

    def test_zero_noise_pipeline_matches_raw_enumeration(self):
        rng = np.random.default_rng(16)
        n, p = 120, 4
        x = rng.standard_normal((n, p))
        beta = np.array([0.8, 0.0, -0.5, 0.0])
        y = x @ beta + rng.standard_normal(n)
        data = RegressionData(y=y, x0=np.ones((n, 1)), x=x)
        c = reparametrize(data)
        chain = pd_repair(build_gram(c), r=0.0)
        stat = GPriorSpec.sample_size()
        post = enumerate_posterior(chain.g, stat, n=chain.n)

        # Independent raw-data route: per-model least squares.
        logs = np.empty(1 << p)
        for gamma in range(1 << p):
            idx = [j for j in range(p) if gamma >> j & 1]
            if idx:
                vg = c.v[:, idx]
                coef = np.linalg.lstsq(vg, c.z, rcond=None)[0]
                r2 = float((c.z @ vg @ coef) / (c.z @ c.z))
                lb = log_bayes_factor(r2, n, len(idx), 1, stat)
            else:
                lb = 0.0
            logs[gamma] = model_prior_log(gamma, p, "hierarchical") + lb
        want = np.exp(logs - logs.max())
        want /= want.sum()
        np.testing.assert_allclose(post.posterior, want, atol=1e-10)

    def test_enumeration_guard(self):
        for p in (27, 21):
            with pytest.raises(ConfigError, match="capped"):
                enumerate_posterior(np.eye(p + 1), InfoCriterionSpec.bic(), n=100)


STATS = {
    "bic": InfoCriterionSpec.bic(),
    "aic": InfoCriterionSpec.aic(),
    "lrt": InfoCriterionSpec.lrt(),
    "fixed-g": GPriorSpec.fixed(40.0),
    "sample-size": GPriorSpec.sample_size(),
    "zs": GPriorSpec.zellner_siow(),
}


def per_model_reference(g, n, stat, prior_kind, p0=1):
    """Model by model: Cholesky solve, closed-form statistics (the scalar
    Zellner-Siow wrappers for zs), log-sum-exp, masks."""
    from scipy.linalg import cho_factor, cho_solve

    p = g.shape[0] - 1
    log_marg = np.empty(1 << p)
    parts = []
    for gamma in range(1 << p):
        idx = [j for j in range(p) if gamma >> j & 1]
        k = len(idx)
        prior = model_prior_log(gamma, p, prior_kind)
        if not idx:
            log_marg[gamma] = prior
            continue
        w = g[idx, p]
        coef = cho_solve(cho_factor(g[np.ix_(idx, idx)], lower=True), w)
        r2 = min(max(float(w @ coef) / g[p, p], 0.0), 1.0 - 1e-12)
        if isinstance(stat, InfoCriterionSpec):
            lstat = -0.5 * stat.rho_at(n, k) * math.log(n) - 0.5 * n * math.log1p(-r2)
            shrink = 1.0
        elif stat.kind == "zellner-siow":
            lstat = log_bayes_factor(r2, n, k, p0, stat)
            shrink = zs_shrinkage(r2, n, k, p0)
        else:
            gg = stat.g if stat.kind == "fixed-g" else float(n)
            lstat = (0.5 * (n - k - p0) * math.log1p(gg)
                     - 0.5 * (n - p0) * math.log1p(gg * (1.0 - r2)))
            shrink = gg / (1.0 + gg)
        log_marg[gamma] = prior + lstat
        parts.append((gamma, idx, shrink * coef))
    post = np.exp(log_marg - log_marg.max())
    post /= post.sum()
    inclusion = np.array([post[[gm for gm in range(1 << p) if gm >> j & 1]].sum()
                          for j in range(p)])
    beta = np.zeros(p)
    for gamma, idx, coef in parts:
        beta[idx] += post[gamma] * coef
    return log_marg, inclusion, beta


def random_gram(p, seed, n=300):
    """Gram of a centered correlated design with a response on part of it."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.4 * rng.standard_normal((p, p)))
    y = x[:, : (p + 1) // 2] @ rng.uniform(-0.3, 0.3, (p + 1) // 2) + rng.standard_normal(n)
    d = np.column_stack([x, y])
    d -= d.mean(axis=0)
    return d.T @ d, n


class TestBatchedEnumeration:
    """The one-pass enumeration against the per-model loop it replaced."""

    @pytest.mark.parametrize("prior_kind", ["hierarchical", "uniform"])
    @pytest.mark.parametrize("name", STATS)
    @pytest.mark.parametrize("p,seed", [(1, 40), (3, 41), (5, 42), (7, 43)])
    def test_matches_per_model_reference(self, p, seed, name, prior_kind):
        g, n = random_gram(p, seed)
        post = enumerate_posterior(g, STATS[name], prior_kind, n=n)
        log_marg, inclusion, beta = per_model_reference(g, n, STATS[name], prior_kind)
        np.testing.assert_allclose(post.log_marginals, log_marg, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(post.inclusion, inclusion, rtol=0, atol=1e-10)
        np.testing.assert_allclose(post.beta_avg, beta, rtol=0, atol=1e-10)
        assert post.r2_clamps == 0

    @pytest.mark.parametrize("name", ["bic", "zs"])
    def test_stack_equals_one_matrix_at_a_time(self, name):
        grams = np.stack([random_gram(4, seed)[0] for seed in range(44, 49)])
        stacked = enumerate_posterior(grams, STATS[name], n=300)
        for i, g in enumerate(grams):
            # Equal up to the summation order of numpy's reductions.
            single = enumerate_posterior(g, STATS[name], n=300)
            for field in ("log_marginals", "posterior", "inclusion", "beta_avg"):
                np.testing.assert_allclose(getattr(stacked, field)[i], getattr(single, field),
                                           rtol=1e-13, atol=1e-15)

    def test_model_averaged_beta_wrapper_matches_pass(self):
        g, n = random_gram(5, 49)
        post = enumerate_posterior(g, STATS["zs"], n=n)
        np.testing.assert_allclose(model_averaged_beta(post, g, STATS["zs"]), post.beta_avg,
                                   rtol=0, atol=1e-12)

    def test_noisy_matrix_counts_its_clamps(self):
        # Laplace noise without repair: some submodel R^2 leaves [0, 1).
        gram = build_gram(toy_centered(p=4, seed=50))
        noisy = gram.g + LaplaceGramLaw(4, 30.0, PrivacyBudget(1.0), seed=0).sample(
            np.random.default_rng(51))
        before = r2_clamp_counter.count
        post = enumerate_posterior(noisy, InfoCriterionSpec.bic(), n=gram.n)
        assert post.r2_clamps >= 1
        assert r2_clamp_counter.count - before == post.r2_clamps
        assert np.all(np.isfinite(post.log_marginals))


class TestModelAveragedBeta:
    def test_mass_on_null_gives_zero_vector(self):
        gram = build_gram(toy_centered(p=2, seed=17))
        post = enumerate_posterior(gram.g, InfoCriterionSpec.bic(), n=gram.n)
        forced = post.__class__(
            log_marginals=post.log_marginals,
            posterior=np.array([1.0, 0.0, 0.0, 0.0]),
            inclusion=np.zeros(2), beta_avg=np.zeros(2),
            prior_kind="uniform", p=2, n=post.n,
        )
        np.testing.assert_array_equal(
            model_averaged_beta(forced, gram.g, InfoCriterionSpec.bic()), np.zeros(2)
        )

    def test_mass_on_full_model_shrinks_ols(self):
        c = toy_centered(p=2, seed=18)
        gram = build_gram(c)
        g_val = 30.0
        post = enumerate_posterior(gram.g, GPriorSpec.fixed(g_val), n=gram.n)
        forced = post.__class__(
            log_marginals=post.log_marginals,
            posterior=np.array([0.0, 0.0, 0.0, 1.0]),
            inclusion=np.ones(2), beta_avg=np.zeros(2),
            prior_kind="uniform", p=2, n=post.n,
        )
        got = model_averaged_beta(forced, gram.g, GPriorSpec.fixed(g_val))
        ols = np.linalg.lstsq(c.v, c.z, rcond=None)[0]
        np.testing.assert_allclose(got, g_val / (1 + g_val) * ols, atol=1e-10)

    def test_matches_four_model_brute_force(self):
        c = toy_centered(p=2, seed=19)
        gram = build_gram(c)
        stat = GPriorSpec.fixed(40.0)
        post = enumerate_posterior(gram.g, stat, "uniform", n=gram.n)
        shrink = 40.0 / 41.0
        want = np.zeros(2)
        for gamma, idx in [(1, [0]), (2, [1]), (3, [0, 1])]:
            vg = c.v[:, idx]
            coef = np.linalg.lstsq(vg, c.z, rcond=None)[0]
            contribution = np.zeros(2)
            contribution[idx] = shrink * coef
            want += post.posterior[gamma] * contribution
        np.testing.assert_allclose(post.beta_avg, want, atol=1e-10)


def test_scaled_gram_stabilizes_as_n_grows():
    dists = []
    for n in (500, 1000, 2000):
        d = []
        for seed in range(20):
            data_a, _, _ = generate_sim_dataset(
                SimStudyConfig(p=3, n=n, snr=1.0, n_active=2, seed=seed),
                np.random.default_rng(seed))
            data_b, _, _ = generate_sim_dataset(
                SimStudyConfig(p=3, n=2 * n, snr=1.0, n_active=2, seed=seed),
                np.random.default_rng(seed))
            ga = build_gram(reparametrize(data_a))
            gb = build_gram(reparametrize(data_b))
            d.append(np.abs(ga.g / n - gb.g / (2 * n)).max())
        dists.append(np.mean(d))
    assert dists[0] > dists[-1]
