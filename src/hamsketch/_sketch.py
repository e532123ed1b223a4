"""The execution driver of both estimators, and the member Hamming sums by
correlation that it runs on.

execution_estimates gives each execution its own size-k family and, per
window j, the estimate

    max(0, (2 * sum_i HAM_i[j] - sum_(u,v) (k - 2*beta(u, v)) * d'_j(u, v)) / k):

karloff's with no D' (2/k * sum_i HAM_i), approx's with the D' it recovered.
The correction (dprime_correction) is D' times the (codes, executions)
weights k - 2*beta, all from one base-bit evaluation over the symbols of D'.
A NoiseProfile is stored as the (windows, distinct codes) CSR matrix this
product takes (its indptr, cols and values), so no entry is sorted again.
Every term is an integer far below 2^53, so the float64 product is exact in
any order.

member_hamming_sums returns, for each of several families of one size k,
sum_i HAM(h_i(text window j), h_i(pattern)) over the family's members for
every window j. The occurring symbols and every family's base bits on them
(one evaluation) are shared by all families. Both exact routes end in summed
correlations (correlation.py), so each family's sum is exact int64:

* symbol pairs: member i separates symbols a and b unless it hashes them
  together, which k - beta(a, b) members do not. So

      sum_i HAM_i[j] = sum_(a,b) N_j(a, b) * (k - beta(a, b)),

  where N_j(a, b) counts positions with text symbol a aligned to pattern
  symbol b in window j. For a fixed text symbol a, the sum over b is the
  correlation of a's indicator with the row W[a, pattern] of W = k - beta
  gathered along the pattern (and symmetrically for a fixed pattern
  symbol). One row per occurring symbol of the smaller side: its indicator
  spectrum is the same for every family and is transformed once, and all
  families finish in one batched inverse FFT. With sigma_t' and sigma_p'
  the symbols occurring in the text and in the pattern, s = min(sigma_t',
  sigma_p') and L the other side's count, a gathered row's spectrum is
  linear in its weights: FFT(W[a, P]) = sum_b W[a, b] * FFT(1[P = b]).
  When L is small (gathered_product_pays: L <= 2 * log2(nfft), and the L
  spectra fit in one FFT chunk), the L indicator spectra are transformed
  once and each family's gathered spectra are one real matrix product, so
  reps families cost s + L + reps FFTs; otherwise each family transforms
  its own gathered rows, s + reps * (s + 1) FFTs. beta over the occurring
  pairs is one compare of per-symbol signatures (hashing.signatures), each
  family's taken once per call.
* per member: project text and pattern through every member of a family,
  tabulated over the occurring symbols only; HAM summed over members is the
  summed window ones plus the summed pattern ones minus twice the summed
  correlation of the binary masks, about 2k + 1 FFTs per family.

member_hamming_sums takes the symbol route iff s <= k (symbol_route_pays),
where it runs fewer FFTs for any number of families. Both routes give the
same int64 counts.
"""

from __future__ import annotations

import math

import numpy as np

from ._seeds import ROLE_EXECUTION, ROLE_FAMILY, mix
from .correlation import correlate_rows, correlation_sums, fft_plan, row_spectra
from .hashing import (
    base_bits,
    beta_from_bits,
    families_new,
    member_table,
    signature_beta,
    signatures,
)
from .text_model import DistanceProfile, IntString, check_instance, occurring_symbols

_MEMBER_CHUNK = 64
# a family's member sums reach k * m; from 2^51 on float64's spacing is 0.5 or
# more, so round_counts could no longer vouch for an FFT sum
_MAX_MEMBER_SUM = 1 << 51


def member_hamming_sums(text: IntString, pattern: IntString, families) -> np.ndarray:
    """(len(families), windows) exact int64: row f is sum_i HAM(h_i(text
    window), h_i(pattern)) over the members of families[f], for families of
    one size k."""
    n, m, _ = check_instance(text, pattern)
    (sym_t, at_t), (sym_p, at_p) = occurring_symbols(text), occurring_symbols(pattern)
    # the symbols occurring on either side, each string's positions and
    # occurring symbols as ranks among them, and every family's base bits on
    # them: (families, 2*pairs, symbols)
    syms = np.union1d(sym_t, sym_p)
    rank_t, rank_p = np.searchsorted(syms, sym_t), np.searchsorted(syms, sym_p)
    bits = base_bits(families, syms).reshape(len(families), -1, syms.size)
    k = families[0].k
    if symbol_route_pays(sym_t.size, sym_p.size, k):
        # the spectra go in as a temporary, which the finish frees before
        # rounding
        return correlation_sums(
            _symbol_pair_spectra(bits, k, rank_t, rank_t[at_t], rank_p, rank_p[at_p]), n, m
        )
    return _per_member_sums(bits, k, rank_t[at_t], rank_p[at_p])


def symbol_route_pays(sigma_t: int, sigma_p: int, k: int) -> bool:
    """Whether the symbol-pair route runs no more FFTs than the per-member
    one: at most s + reps * (s + 1) against reps * (2k + 1), s =
    min(sigma_t, sigma_p), holds for every number of executions reps iff
    s <= k."""
    return min(sigma_t, sigma_p) <= k


def gathered_product_pays(sigma_other: int, n: int, m: int) -> bool:
    """Whether the symbol route gets each weights row's spectrum along the
    other string as a product with that side's sigma_other indicator spectra
    (transformed once per call) rather than by an FFT of its own: the
    product costs sigma_other multiply-adds per spectrum point against the
    FFT's O(log nfft), and measured no slower up to sigma_other =
    2 * log2(nfft). The indicator spectra must also fit in one FFT chunk, so
    the route's scratch keeps its bound at any n."""
    nfft, chunk = fft_plan(n, m)
    return sigma_other <= min(2 * math.log2(nfft), chunk)


def _symbol_pair_spectra(bits, k, rank_t, text_at, rank_p, pattern_at) -> np.ndarray:
    # one row per occurring symbol of the smaller side: its indicator against
    # its weights row gathered along the other string; returns each family's
    # spectrum products summed over the rows
    n, m = text_at.size, pattern_at.size
    text_rows = rank_t.size <= rank_p.size
    own, own_at, other, other_at = (
        (rank_t, text_at, rank_p, pattern_at)
        if text_rows
        else (rank_p, pattern_at, rank_t, text_at)
    )
    nfft, chunk = fft_plan(n, m)
    sigs = signatures(bits)
    spectra = None
    if gathered_product_pays(other.size, n, m):
        # FFT(W[a, other string]) = sum_b W[a, b] * FFT(1[other string = b]),
        # a real product over the (re, im)-interleaved indicator spectra
        spectra = row_spectra(other_at[None, :] == other[:, None], nfft, pattern=text_rows)
        spectra = spectra.view(np.float64)
    acc = np.zeros((sigs.shape[0], nfft // 2 + 1), dtype=np.complex128)
    for lo in range(0, own.size, chunk):
        rows = own[lo : lo + chunk]
        masks = row_spectra(own_at[None, :] == rows[:, None], nfft, pattern=not text_rows)
        for f, sig in enumerate(sigs):
            # weights[a, b] = members separating own symbol a from symbol b
            weights = (k - signature_beta(sig[rows, None], sig, k)).astype(np.float64)
            if spectra is not None:
                gathered = (weights[:, other] @ spectra).view(np.complex128)
            else:
                gathered = row_spectra(weights[:, other_at], nfft, pattern=text_rows)
            acc[f] += np.einsum("ij,ij->j", masks, gathered)
    return acc


def _per_member_sums(bits, k, text_at, pattern_at) -> np.ndarray:
    # Projects both strings through every member of a family, chunking members
    # to bound memory: HAM summed over members = window ones + pattern ones -
    # 2 * aligned ones.
    n, m = text_at.size, pattern_at.size
    nw = n - m + 1
    out = np.zeros((bits.shape[0], nw), dtype=np.int64)
    ones = np.zeros(n + 1, dtype=np.int64)
    for total, fam_bits in zip(out, bits):
        table = member_table(fam_bits)
        for lo in range(0, k, _MEMBER_CHUNK):
            rows = table[lo : lo + _MEMBER_CHUNK]
            t_masks = rows[:, text_at]
            p_masks = rows[:, pattern_at]
            np.cumsum(t_masks.sum(axis=0, dtype=np.int64), out=ones[1:])
            total += ones[m : m + nw] - ones[:nw] + int(p_masks.sum(dtype=np.int64))
            total -= 2 * correlate_rows(t_masks, p_masks)
    return out


def default_reps(n: int) -> int:
    """Outer repetition count, ceil(2*log2 n)."""
    if n < 2:
        return 1
    return math.ceil(2 * math.log2(n))


def resolve_reps(reps: int | None, n: int) -> int:
    """reps, or ceil(2*log2 n) when it is None; a count below 1 is an error."""
    if reps is None:
        return default_reps(n)
    check_reps(reps)
    return reps


def check_reps(reps: int) -> None:
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")


def check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")


def family_size(target: float) -> int:
    """ceil(target) rounded up to a power of two, at least 2."""
    return 1 << max(1, (math.ceil(target) - 1).bit_length())


def execution_families(k: int, seed: int, execs):
    """The size-k hash family of each execution e in execs, drawn at
    mix(seed, ROLE_EXECUTION, e, ROLE_FAMILY)."""
    return families_new(k, [mix(seed, ROLE_EXECUTION, e, ROLE_FAMILY) for e in execs])


def execution_estimates(
    text: IntString, pattern: IntString, k: int, seed: int, execs, noise=None
) -> np.ndarray:
    """(len(execs), windows) estimates of the executions execs, with noise (a
    NoiseProfile) as every execution's D', or no correction without one. All
    are computed together; each row equals its execution alone, byte for byte."""
    check_reps(len(execs))
    if k * len(pattern) >= _MAX_MEMBER_SUM:
        raise ValueError(
            f"epsilon too small: k = 2^{k.bit_length() - 1} members over a pattern of "
            f"length {len(pattern)} give member sums up to k * m >= 2^51, past what "
            "float64 FFT sums hold exactly; use a larger epsilon"
        )
    families = execution_families(k, seed, execs)
    correction = 0 if noise is None else dprime_correction(noise, families)
    return np.maximum(0.0, (2 * member_hamming_sums(text, pattern, families) - correction) / k)


def dprime_correction(noise, families) -> np.ndarray:
    """(len(families), windows) int64 sum_(u,v) (k - 2*beta(u, v)) * d'_j(u, v)
    of each family (all of one size k) over the NoiseProfile noise."""
    from scipy import sparse

    k, sigma = families[0].k, noise.sigma
    # the weights k - 2*beta of its codes, from one base-bit evaluation over
    # their symbols
    us, vs = noise.codes // sigma, noise.codes % sigma
    syms = np.union1d(us, vs)
    at_u, at_v = np.searchsorted(syms, us), np.searchsorted(syms, vs)
    beta = beta_from_bits(families, base_bits(families, syms), at_u, at_v)
    weights = (k - 2 * beta).T.astype(np.float64)
    dprime = sparse.csr_matrix(
        (noise.values.astype(np.float64), noise.cols, noise.indptr),
        shape=(noise.n_windows, noise.codes.size),
    )
    # every term is an integer below 2^53, so the float64 product is exact
    return (dprime @ weights).T.astype(np.int64)


def median_profile(runs) -> DistanceProfile:
    """Per-window median over runs, the estimates of the executions as an
    (executions, windows) array or a list of rows."""
    runs = np.sort(np.asarray(runs, dtype=np.float64), axis=0)
    h = runs.shape[0] // 2
    # np.median's value to the bit: the middle row, or the mean of the two
    # middle rows, plus 0.0 as its mean adds them to 0.0 (-0.0 reads 0.0)
    middle = runs[h] if runs.shape[0] % 2 else (runs[h - 1] + runs[h]) / 2
    return DistanceProfile(middle + 0.0, "estimate")
