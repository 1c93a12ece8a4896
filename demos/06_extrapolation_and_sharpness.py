"""Smoothness conditions, kernel truncation, extrapolation and sharpness.

Combined experiment: the power symbol |xi|^(-1/2) satisfies the
dyadic-shell derivative bounds with an R-independent constant (the
scale-invariant case), its truncated kernel reproduces 1/(pi x) in the
resolved range, and the operator-norm estimates stay stable along the
whole line 1/p - 1/q = 1/2 as the grid refines.  Below the critical
smoothing exponent the top-annulus witnesses grow at the predicted
dyadic rate, which is what makes the d/r exponent sharp.
"""

import numpy as np

from besovlp import (
    GaussianSampler,
    GridSpec,
    SearchBudget,
    extrapolation_sweep,
    hilbert_symbol,
    kernel_of_symbol,
    mihlin_check,
    riesz_symbol,
    sharpness_probe,
)

sampler = GaussianSampler(271828, 20000)
budget = SearchBudget(restarts=6, steps=30, search_samples=2000)

print("dyadic-shell derivative bounds for |xi|^(-1/2) (r = rho = 2):")
dense = GridSpec(1, 4096, 32.0)
rep = mihlin_check(riesz_symbol(dense, 0.5), r=2.0, rho=2.0)
per_alpha = {}
for s in rep.samples:
    if s["R"] >= 2.0:
        per_alpha.setdefault(tuple(s["alpha"]), []).append(s["value"])
for alpha, vals in sorted(per_alpha.items()):
    print(f"  |alpha|={sum(alpha)}: shell values spread "
          f"{max(vals) / min(vals):.4f} (scale-invariant symbol)")

print("\ntruncated kernel of the Hilbert symbol vs analytic 1/(pi x):")
g16 = GridSpec(1, 2048, 16.0)
k = kernel_of_symbol(hilbert_symbol(g16), 5)
x = g16.min_image_coords()[:, 0]
for target in (0.25, 0.5, 1.0):
    idx = int(np.argmin(np.abs(x - target)))
    print(f"  x={x[idx]:5.3f}: kernel {k.values[idx, 0, 0].real: .5f}   "
          f"1/(pi x) {1 / (np.pi * x[idx]): .5f}")

print("\noperator-norm estimates along 1/p - 1/q = 1/2 across grids:")
grids = [GridSpec(1, n, 1.0) for n in (128, 256, 512)]
sweep = extrapolation_sweep(lambda g: riesz_symbol(g, 0.5), 2.0,
                            [(4.0 / 3.0, 4.0), (1.5, 6.0), (2.0, 10.0)],
                            grids, budget=budget, sampler=sampler)
for row in sweep.rows:
    print(f"  p={row['p']:.3f} q={row['q']:4.0f} N={row['n_per_dim']:4d}: "
          f"{row['estimate']:.4f}")
for key, stat in sweep.stability.items():
    print(f"  stability {key}: spread {stat['spread']:.3f}")

print("\nsharpness of the d/r exponent (witness growth per dyadic level):")
for sigma in (0.25, 0.5, 0.8):
    probe = sharpness_probe(sigma, 2.0, grids)
    growth = ", ".join(f"{g:.4f}" for g in probe["per_level_growth"])
    print(f"  sigma={sigma}: growth [{growth}]  "
          f"expected {probe['expected_growth']:.4f}")
