"""Model averaging and selection from one noisy Gram matrix.

Releasing the cross-product matrix of the bounded design-and-response
stack privatizes every submodel statistic at once.  This demo compares
the oracle (no noise) with the Laplace mechanism, with and without hard
thresholding, on a synthetic dataset where the truth is sparse, and shows
the synthetic-dataset trick: any standard tool applied to the surrogate
rows reproduces the private analysis exactly.
"""

import numpy as np

from dpms import (
    GPriorSpec,
    PrivacyBudget,
    Sensitivity,
    SimStudyConfig,
    build_gram,
    child_rng,
    enumerate_posterior,
    gram_law,
    generate_sim_dataset,
    pd_repair,
    privatize_gram,
    reparametrize,
    synthetic_dataset,
    threshold_offdiagonal,
)

p, n = 6, 50_000
cfg = SimStudyConfig(p=p, n=n, snr=1.0, n_active=2, beta_sd=0.4, seed=11)
rng = child_rng(11, 0)
data, beta_true, sigma = generate_sim_dataset(cfg, rng)
print("true support:", np.flatnonzero(beta_true), " sigma =", round(sigma, 4))

centered = reparametrize(data)
gram = build_gram(centered)
stat = GPriorSpec.sample_size()
law = gram_law(p, PrivacyBudget(1.0), Sensitivity(l1=0.5), 11)

oracle = enumerate_posterior(pd_repair(gram, r=0.0).g, stat, n=n)
print("\noracle inclusion:", np.round(oracle.inclusion, 3))

for label, threshold in (("Laplace + ridge", False),
                         ("Laplace + threshold + ridge", True)):
    chain = privatize_gram(gram, law, child_rng(11, 1))
    if threshold:
        chain = threshold_offdiagonal(chain, 99.0)
    chain = pd_repair(chain)
    post = enumerate_posterior(chain.g, stat, n=n)
    print(f"{label:28s} inclusion: {np.round(post.inclusion, 3)}  "
          f"(r={chain.r:.1f}, e_lambda={chain.e_lambda:.1f})")

# Synthetic-dataset workflow: rows with exactly the released Gram matrix.
chain = pd_repair(privatize_gram(gram, law, child_rng(11, 4)))
d_star = synthetic_dataset(chain.g, n, child_rng(11, 6))
post_direct = enumerate_posterior(chain.g, stat, n=n)
post_synth = enumerate_posterior(d_star.T @ d_star, stat, n=n)
gap = np.abs(post_direct.posterior - post_synth.posterior).max()
print(f"\nsynthetic rows reproduce the released-Gram posterior to {gap:.1e}")
