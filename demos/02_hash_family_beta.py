"""The XOR-tree hash family and its pair agreement count beta.

family_new(k, seed) builds k binary hashes from 2*log2(k) base functions by
XOR-ing one of each pair, selected by the bits of the member index. Any
single member is a uniform bit and any two members are independent, which is
all the estimators need.

beta(family, u, v) counts the members that hash symbols u and v to the same
bit. It is read from two per-symbol values, without touching the k members:
Y(s), whose bit b says whether the two base functions of pair b differ on s,
and P(s), the XOR of s's even base bits. beta is k/2 if Y(u) != Y(v), else k
if P(u) == P(v) and 0 if not. This script checks the identity beta(u, u) = k
and looks at how tightly beta/k concentrates around 1/2 for u != v.
"""

import numpy as np

from hamsketch import beta, family_new

k = 1024
family = family_new(k, seed=42)
print(f"family: k={k} members from {2 * int(np.log2(k))} base functions")

assert beta(family, 123, 123) == k  # collisions with itself, always

rng = np.random.default_rng(0)
pairs = rng.integers(0, 1 << 16, size=(2000, 2))
pairs = pairs[pairs[:, 0] != pairs[:, 1]]
ratios = np.array([beta(family, int(u), int(v)) / k for u, v in pairs])

dev = np.abs(ratios - 0.5)
print(f"{len(pairs)} random pairs: beta/k within 0.1 of 1/2 on {(dev <= 0.1).mean():.1%}")

# the rule only allows beta in {0, k/2, k}: any pair whose two base functions
# differ in whether they split (u, v) already halves the collisions, and
# Y(u) == Y(v) (beta = 0 or k) hits about one random pair in k
support = sorted(set(np.round(ratios * k).astype(int).tolist()))
print(f"observed beta values: {support} (only 0, k/2, k are possible)")
print("the correction weight 2*beta-k is 0 for the typical pair, so noise")
print("left out of the sparse matrix D' cancels in expectation")
