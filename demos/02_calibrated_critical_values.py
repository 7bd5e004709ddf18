"""Fixed-level testing with simulated nulls.

The private likelihood-ratio statistic is censored, averaged, and noised,
so its null law is not the textbook chi-squared.  Simulating the whole
pipeline under the null gives calibrated critical values; using the
uncalibrated 3.841 cutoff instead badly inflates the type I error when
the number of subsets or delta is small.
"""

import numpy as np

from dpms import (
    CensorBounds,
    NullSimConfig,
    PrivacyBudget,
    child_rng,
    critical_value,
    p_value,
    simulate_null_lrt,
)

bounds = CensorBounds(0.0, 7.0)  # censor log likelihood ratios at [0, 7]
print(f"{'M':>3} {'delta':>6} {'calibrated cv':>14} {'type I @ 3.841':>15}")
for M in (2, 5, 10):
    for delta in (0.05, 0.25, 0.5):
        cfg = NullSimConfig(M=M, bounds=bounds, budget=PrivacyBudget(1.0, delta),
                            nsim=100_000, df=1)
        null = simulate_null_lrt(cfg, child_rng(7, M))
        cv = critical_value(null, 0.05)
        fresh = simulate_null_lrt(cfg, child_rng(8, M)).sorted_samples
        uncal = float(np.mean(fresh > 3.841))
        print(f"{M:3d} {delta:6.2f} {cv:14.3f} {uncal:15.3f}")

print("\nSmall M / small delta need much larger cutoffs than 3.841;")
print("large M with large delta can even reject below it (more power).")

# A p-value for one observed private statistic.
cfg = NullSimConfig(M=5, bounds=bounds, budget=PrivacyBudget(1.0, 0.25),
                    nsim=100_000, df=1)
null = simulate_null_lrt(cfg, child_rng(7, 99))
observed = 5.2
print(f"\nobserved 2 log Lambda* = {observed}: calibrated p = "
      f"{p_value(null, observed):.4f}")
