"""Each window's heavy mismatch pairs as a capped sparse matrix D'.

Window j has pair counts D_j: D_j[u, v] counts the positions where text
symbol u meets pattern symbol v, u != v, and their total is HAM(T_j, P).
The corrected estimator needs, per window, a sparse D'_j whose residual
meets sum (d - d')^2 <= b * eps * d^2. The paper recovers it by a ladder of
coupled projections, because its O~(n/eps) route sees only bucket counts.
hamsketch builds the exact pair counts (prepare_pair_counts) instead, so it
takes D'_j as the window's capacity = 3/eps_eff largest counts, ties going
to the smaller code (top_pair_counts). Every kept value is exact, and with x
the (capacity + 1)-th largest count the dropped counts are each at most x
and sum to at most d - capacity * x, so on every window

    sum (d - d')^2 <= x * (d - capacity * x) <= d^2 / (4 * capacity).

The planted_heavy model plants a text block of one repeated symbol against a
pattern skewed toward symbol 0, so block windows have one dominant pair.
"""

import numpy as np

from hamsketch import (
    B_CONST,
    approx_params,
    generate_instance,
    prepare_pair_counts,
    top_pair_counts,
)

n, m, sigma, eps = 4096, 256, 16, 0.25
text, pattern = generate_instance(n, m, sigma, "planted_heavy", seed=3)

params = approx_params(eps, seed=5, n=n)
print(f"eps={eps}: effective eps {params.epsilon_eff}, "
      f"{params.capacity} entries per window")

pairs = prepare_pair_counts(text, pattern)
noise = top_pair_counts(pairs, params.capacity)
noise.validate()
sizes = np.diff(noise.indptr)
print(f"D' holds {noise.values.size} entries over {noise.n_windows} windows "
      f"(median {int(np.median(sizes))} per window, "
      f"{int(np.count_nonzero(sizes == params.capacity))} windows at capacity)")

# the exact pair counts as a dense (code, window) table, code = u*sigma + v
truth = pairs.dense()

# pick the window with the largest single D' value: a block window
j = int(noise.entry_windows()[noise.values.argmax()])
lo, hi = noise.indptr[j], noise.indptr[j + 1]
got = dict(zip(noise.entry_codes()[lo:hi], noise.values[lo:hi]))
print(f"\nwindow {j}: true off-diagonal mass {truth[:, j].sum()}")
for code in np.argsort(-truth[:, j], kind="stable")[:5]:
    u, v = divmod(int(code), sigma)
    print(f"  true d[{u},{v}] = {truth[code, j]:4d}   d'[{u},{v}] = {got.get(code, 0):4d}")

# over all windows: every D' value is its pair's exact count, and the
# residual meets the deterministic bound
dprime = np.zeros_like(truth)
dprime[noise.entry_codes(), noise.entry_windows()] = noise.values
inexact = int(np.count_nonzero(truth[noise.entry_codes(), noise.entry_windows()] != noise.values))
d = truth.sum(axis=0)
resid = ((truth - dprime) ** 2).sum(axis=0)
live = d > 0
worst = float((4 * params.capacity * resid[live] / d[live] ** 2).max(initial=0.0))
budget = float((resid[live] / (B_CONST * eps * d[live] ** 2)).max(initial=0.0))
print(f"\nD' values off their true count: {inexact} (must be 0)")
print(f"worst 4 * capacity * sum (d - d')^2 / d^2: {worst:.3f} (must be <= 1); "
      f"worst share of the budget b*eps*d^2 used: {budget:.3f}")
if inexact:
    raise SystemExit("a D' value is not its pair's true count")
if worst > 1:
    raise SystemExit("a window's residual exceeds d^2 / (4 * capacity)")
