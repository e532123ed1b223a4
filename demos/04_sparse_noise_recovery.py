"""Recovering each window's heavy mismatch pairs as a capped sparse matrix.

Window j has pair counts D_j: D_j[u, v] counts the positions where text
symbol u meets pattern symbol v, u != v, and their total is HAM(T_j, P).
The recovery sketch projects symbol pairs into coupled bucket grids at
several aspect ratios. It takes each bucket's count and bit-plane sums from
the exact pair counts (sparse_recovery.prepare_pair_counts) and decodes a
bucket to a pair (u, v) when every bit plane has a strict majority and the
pair lands back in that bucket. Every decode min-updates its pair's value,
and every bucket holding (u, v) counts at least D_j[u, v], so a recovered
value never falls below the true count. A pair that sits alone among its
window's pairs in some bucket ends at exactly its count, and the ladder of
projections stops once every present pair has done so; it runs to its
O(log n) repetitions per scale only where some pair never does. Here it
stops early, so a value above the truth can only name a pair absent from
the window, which a decode can still produce. The result is a capped sparse
matrix D'_j per window that catches the heavy pairs; light pairs may be
missed, which the corrected estimator tolerates by design.

The planted_heavy model plants a text block of one repeated symbol against a
pattern skewed toward symbol 0, so block windows have one dominant pair.
"""

import numpy as np

from hamsketch import construct_sparse_noise, generate_instance, recovery_params
from hamsketch.sparse_recovery import prepare_pair_counts

n, m, sigma, eps = 4096, 256, 16, 0.25
text, pattern = generate_instance(n, m, sigma, "planted_heavy", seed=3)

params = recovery_params(eps, seed=5, n=n)
print(f"eps={eps}: effective eps {params.epsilon_eff}, {params.num_scales} scales, "
      f"{params.capacity} entries per window, reps={params.reps}")

noise = construct_sparse_noise(text, pattern, params)
noise.validate()
sizes = np.diff(noise.indptr)
print(f"recovered {noise.values.size} entries over {noise.n_windows} windows "
      f"(median {int(np.median(sizes))} per window)")

# the exact pair counts as a dense (code, window) table, code = u*sigma + v;
# a code keeps either a count row over all windows or (window, count) entries
pairs = prepare_pair_counts(text, pattern)
truth = np.zeros((sigma * sigma, noise.n_windows), dtype=np.int64)
rowed = pairs.row_ids >= 0
truth[pairs.codes[rowed]] = pairs.rows[pairs.row_ids[rowed]]
truth[np.repeat(pairs.codes, np.diff(pairs.offsets)), pairs.windows] = pairs.counts

# pick the window with the largest single recovered value: a block window
j = int(noise.entry_windows()[noise.values.argmax()])
lo, hi = noise.indptr[j], noise.indptr[j + 1]
got = dict(zip(noise.us[lo:hi].astype(np.int64) * sigma + noise.vs[lo:hi], noise.values[lo:hi]))
print(f"\nwindow {j}: true off-diagonal mass {truth[:, j].sum()}")
for code in np.argsort(-truth[:, j], kind="stable")[:5]:
    u, v = divmod(int(code), sigma)
    print(f"  true d[{u},{v}] = {truth[code, j]:4d}   recovered d'[{u},{v}] = {got.get(code, 0):4d}")

# over all windows: recovered values never fall below the truth
true_vals = truth[noise.us.astype(np.int64) * sigma + noise.vs, noise.entry_windows()]
below = int(np.count_nonzero(noise.values < true_vals))
absent = true_vals == 0
above = int(np.count_nonzero((noise.values > true_vals) & ~absent))
print(f"\nrecovered entries below their true count: {below} (must be 0)")
print(f"present pairs above their true count: {above} (must be 0); "
      f"{int(absent.sum())} entries name a pair absent from its window")
if below:
    raise SystemExit("a recovered value fell below its true count")
if above:
    raise SystemExit("a present pair's recovered value is not its true count")
