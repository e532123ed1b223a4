"""Corrected estimator end to end, against the baseline at the same accuracy.

The corrected estimator runs the baseline sketch with a much smaller family
(k on the order of 1/eps instead of 1/eps^2) and cancels the extra variance
by keeping each window's heavy mismatch pairs in D' (its largest exact pair
counts) and adding the exactly computable correction sum_{u,v} (2*beta(u,v) - k) * d'[u,v] to the
sketch numerator. Both estimators get the same per-window guarantee; the
corrected one does less hashing work as eps shrinks.

reps is lowered here to keep the demo quick; defaults give the full
median-amplified guarantee.
"""

import time

from hamsketch import (
    approx_params,
    approx_profile,
    error_stats,
    generate_instance,
    hamming_profile_convolution,
    karloff_params,
    karloff_profile,
)

n, m, sigma, eps, reps = 16384, 1024, 16, 0.1, 9
text, pattern = generate_instance(n, m, sigma, "uniform", seed=2)
exact = hamming_profile_convolution(text, pattern)


def show(name, est, dt):
    s = error_stats(est.values, exact.values, eps)
    print(f"{name:10s} {dt:6.1f}s  within eps {s['fraction_within_epsilon']:7.1%}  "
          f"mean rel err {s['mean_relative_error']:.4f}  max {s['max_relative_error']:.4f}")


kp = karloff_params(eps, seed=8, n=n, reps=reps)
t0 = time.perf_counter()
k_est = karloff_profile(text, pattern, kp)
show(f"baseline", k_est, time.perf_counter() - t0)
print(f"           (k={kp.k} members per execution)")

ap = approx_params(eps, seed=7, n=n, reps=reps)
t0 = time.perf_counter()
a_est = approx_profile(text, pattern, ap)
show(f"corrected", a_est, time.perf_counter() - t0)
print(f"           (k={ap.k} members per execution plus the pair counts D' comes from)")

print("\nthe pair counts are a fixed overhead at this size; 06_scaling_bench.py shows")
print("how the balance tips as eps shrinks")
