"""The execution driver of both estimators, and the signed signature
matches by correlation that it runs on.

Member i of a family maps symbol s to P(s) XOR parity(i & Y(s)), so its
members' mean of (-1)^(h_i(u) XOR h_i(v)) is the agreement A(u, v) =
[Y(u) = Y(v)] * (-1)^(P(u) XOR P(v)) in {-1, 0, 1}, and beta = k/2 * (1 +
A) (hashing). Summed over a window's positions, with

    C[j] = sum_l A(text[j + l], pattern[l]),    |C[j]| <= m,

the members' Hamming sum is sum_i HAM_i[j] = k/2 * (m - C[j]), and the
correction's weights are k - 2*beta = -k * A. So k cancels from the
estimate, and execution_estimates gives each execution its own size-k
family and, per window j, the integer

    max(0, m - C[j] + sum_(u,v) A(u, v) * d'_j(u, v)):

karloff's with no D' (2/k * sum_i HAM_i), and approx's with the D' it
builds on the sort route (noise_profile.pair_grid_pays false). On the grid
route approx takes the same integers from its block pair counts instead,
as d - (N - D') @ A with A from cell_agreements: the (cells, executions)
agreements of every occurring symbol pair, from one base-bit evaluation.
The correction (dprime_correction) is D' times the (codes, executions)
agreements, all from one base-bit evaluation over the symbols of D'. A
NoiseProfile is stored as the (windows, distinct codes) CSR matrix this
product takes (NoiseProfile.csr), so no entry is sorted again. Every term is
an integer of size at most m, so the float64 product is exact in any order.

signed_matches returns C of several families of one size k for every
window j. The occurring symbols and every family's signatures on them (one
base-bit evaluation) are shared by all families. Both exact routes end in
summed correlations (correlation.py), so each family's C is exact int64:

* symbol pairs: C[j] = sum_(a,b) N_j(a, b) * A(a, b), where N_j(a, b) counts
  positions with text symbol a aligned to pattern symbol b in window j. For
  a fixed text symbol a, the sum over b is the correlation of a's indicator
  with the row A[a, pattern] gathered along the pattern (and symmetrically
  for a fixed pattern symbol). One row per occurring symbol of the smaller
  side: its indicator spectrum is the same for every family and is
  transformed once, and all families finish in one batched inverse FFT.
  With sigma_t' and sigma_p' the symbols occurring in the text and in the
  pattern, s = min(sigma_t', sigma_p') and L the other side's count, a
  gathered row's spectrum is linear in its weights: FFT(A[a, P]) = sum_b
  A[a, b] * FFT(1[P = b]). When L is small (gathered_product_pays: L <= 2 *
  log2(nfft), and the L spectra fit in one FFT chunk), the L indicator
  spectra are transformed once and each family's gathered spectra are one
  real matrix product, so reps families cost s + L row transforms;
  otherwise each family transforms its own gathered rows, s + reps * s.
* Y groups: A(u, v) is nonzero only where Y(u) = Y(v), and there it is the
  product of the signs (-1)^P(u) and (-1)^P(v). So C is the summed
  correlation, over each Y value y present in both strings, of the text row
  holding (-1)^P at the positions whose symbol has Y = y (0 elsewhere) with
  the pattern row built the same way: at most 2 * min(s, k) row transforms
  per family, as Y takes at most k values.

signed_matches takes the symbol route iff s <= k (symbol_route_pays), where
it transforms no more rows than the Y groups can need for any number of
families. Both routes give the same int64 counts.
"""

from __future__ import annotations

import math

import numpy as np

from ._seeds import ROLE_EXECUTION, ROLE_FAMILY, mix
from .correlation import correlation_sums, fft_plan, row_spectra
from .hashing import families_new, family_signatures, signature_agreement
from .text_model import DistanceProfile, IntString, check_instance, occurring_symbols


def signed_matches(text: IntString, pattern: IntString, families) -> np.ndarray:
    """(len(families), windows) exact int64: row f is C[j] = sum_l A(text[j +
    l], pattern[l]) under families[f], for families of one size k."""
    n, m, _ = check_instance(text, pattern)
    (sym_t, at_t), (sym_p, at_p) = occurring_symbols(text), occurring_symbols(pattern)
    # the symbols occurring on either side, each string's positions and
    # occurring symbols as ranks among them, and every family's signatures on
    # them: (families, symbols)
    syms = np.union1d(sym_t, sym_p)
    rank_t, rank_p = np.searchsorted(syms, sym_t), np.searchsorted(syms, sym_p)
    sigs = family_signatures(families, syms)
    route = (
        _symbol_pair_spectra
        if symbol_route_pays(sym_t.size, sym_p.size, families[0].k)
        else _y_group_spectra
    )
    # the spectra go in as a temporary, which the finish frees before rounding
    return correlation_sums(route(sigs, rank_t, rank_t[at_t], rank_p, rank_p[at_p]), n, m)


def symbol_route_pays(sigma_t: int, sigma_p: int, k: int) -> bool:
    """Whether the symbol-pair route transforms no more rows than the Y
    groups: at most s + reps * s against up to 2 * reps * min(s, k), s =
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


def _symbol_pair_spectra(sigs, rank_t, text_at, rank_p, pattern_at) -> np.ndarray:
    # one row per occurring symbol of the smaller side: its indicator against
    # its agreements row gathered along the other string; returns each
    # family's spectrum products summed over the rows
    n, m = text_at.size, pattern_at.size
    text_rows = rank_t.size <= rank_p.size
    own, own_at, other, other_at = (
        (rank_t, text_at, rank_p, pattern_at)
        if text_rows
        else (rank_p, pattern_at, rank_t, text_at)
    )
    nfft, chunk = fft_plan(n, m)
    spectra = None
    if gathered_product_pays(other.size, n, m):
        # FFT(A[a, other string]) = sum_b A[a, b] * FFT(1[other string = b]),
        # a real product over the (re, im)-interleaved indicator spectra
        spectra = row_spectra(other_at[None, :] == other[:, None], nfft, pattern=text_rows)
        spectra = spectra.view(np.float64)
    acc = np.zeros((sigs.shape[0], nfft // 2 + 1), dtype=np.complex128)
    for lo in range(0, own.size, chunk):
        rows = own[lo : lo + chunk]
        masks = row_spectra(own_at[None, :] == rows[:, None], nfft, pattern=not text_rows)
        for f, sig in enumerate(sigs):
            weights = signature_agreement(sig[rows, None], sig).astype(np.float64)
            if spectra is not None:
                gathered = (weights[:, other] @ spectra).view(np.complex128)
            else:
                gathered = row_spectra(weights[:, other_at], nfft, pattern=text_rows)
            acc[f] += np.einsum("ij,ij->j", masks, gathered)
    return acc


def _y_group_spectra(sigs, rank_t, text_at, rank_p, pattern_at) -> np.ndarray:
    # per family, one (-1)^P row pair per Y value present in both strings;
    # returns each family's spectrum products summed over its Y values
    n, m = text_at.size, pattern_at.size
    nfft, chunk = fft_plan(n, m)
    acc = np.zeros((sigs.shape[0], nfft // 2 + 1), dtype=np.complex128)
    for f, sig in enumerate(sigs):
        ys = np.intersect1d(sig[rank_t] >> 1, sig[rank_p] >> 1)
        sig_t, sig_p = sig[text_at], sig[pattern_at]
        sign_t, sign_p = 1.0 - 2.0 * (sig_t & 1), 1.0 - 2.0 * (sig_p & 1)
        for lo in range(0, ys.size, chunk):
            group = ys[lo : lo + chunk, None]
            t_spec = row_spectra(np.where(sig_t >> 1 == group, sign_t, 0.0), nfft)
            p_spec = row_spectra(np.where(sig_p >> 1 == group, sign_p, 0.0), nfft, pattern=True)
            acc[f] += np.einsum("ij,ij->j", t_spec, p_spec)
    return acc


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
    families = execution_families(k, seed, execs)
    estimates = len(pattern) - signed_matches(text, pattern, families)
    if noise is not None:
        estimates += dprime_correction(noise, families)
    return np.maximum(0.0, estimates)


def dprime_correction(noise, families) -> np.ndarray:
    """(len(families), windows) int64 sum_(u,v) A(u, v) * d'_j(u, v) of each
    family over the NoiseProfile noise."""
    # the agreements of its codes, from one base-bit evaluation over their
    # symbols
    us, vs = noise.codes // noise.sigma, noise.codes % noise.sigma
    syms = np.union1d(us, vs)
    at_u, at_v = np.searchsorted(syms, us), np.searchsorted(syms, vs)
    sig = family_signatures(families, syms)
    weights = signature_agreement(sig[:, at_u], sig[:, at_v]).T.astype(np.float64)
    # every term is an integer of size at most m, so the float64 product is
    # exact
    return (noise.csr() @ weights).T.astype(np.int64)


def cell_agreements(families, sym_t: np.ndarray, sym_p: np.ndarray) -> np.ndarray:
    """(sym_t.size * sym_p.size, len(families)) float64 agreements A(u, v)
    of every symbol pair of sym_t and sym_p, row-major over (u, v), under
    each family, from one base-bit evaluation over their symbols."""
    syms = np.union1d(sym_t, sym_p)
    sig = family_signatures(families, syms)
    sig_t, sig_p = sig[:, np.searchsorted(syms, sym_t)], sig[:, np.searchsorted(syms, sym_p)]
    agree = signature_agreement(sig_t[:, :, None], sig_p[:, None, :])
    return agree.reshape(len(families), -1).T.astype(np.float64)


def median_profile(runs) -> DistanceProfile:
    """Per-window median over runs, the estimates of the executions as an
    (executions, windows) array or a list of rows."""
    runs = np.sort(np.asarray(runs, dtype=np.float64), axis=0)
    h = runs.shape[0] // 2
    # np.median's value to the bit: the middle row, or the mean of the two
    # middle rows, plus 0.0 as its mean adds them to 0.0 (-0.0 reads 0.0)
    middle = runs[h] if runs.shape[0] % 2 else (runs[h - 1] + runs[h]) / 2
    return DistanceProfile(middle + 0.0, "estimate")
