"""Exact sliding Hamming profiles: the two baselines and why they agree.

A profile holds HAM(T_j, P) for every window T_j = T[j .. j+m-1]. The naive
backend compares each window directly, O(n*m) element work; the convolution
backend counts aligned matches and subtracts from m. It splits the pattern's
symbols: the few frequent ones are FFT cross-correlations, the rare ones are
counted in a few bincount passes over the text, O(n sqrt(m) log n) at any
alphabet size (the second instance has sigma = 8192). Both are exact, so they
must agree bit for bit.
"""

import time

from hamsketch import generate_instance, hamming_profile_convolution, hamming_profile_naive

for n, m, sigma in [(4096, 256, 32), (65536, 1024, 8192), (65536, 8192, 32)]:
    text, pattern = generate_instance(n, m, sigma, "uniform", seed=7)
    t0 = time.perf_counter()
    naive = hamming_profile_naive(text, pattern)
    t1 = time.perf_counter()
    conv = hamming_profile_convolution(text, pattern)
    t2 = time.perf_counter()
    assert (naive.values == conv.values).all()
    print(f"n={n:6d} m={m:5d} sigma={sigma:5d}: naive {t1 - t0:6.3f}s  "
          f"convolution {t2 - t1:6.3f}s  (identical)")

vals = conv.values
print(f"\nlast instance: {conv.n_windows} windows, first few {vals[:6].astype(int).tolist()}")
best = int(vals.argmin())
print(f"closest window: j={best} with {int(vals[best])} mismatches out of {m}")
print(f"mean distance {vals.mean():.1f}, expected ~ m(1-1/sigma) = {m * (1 - 1 / sigma):.1f}")
