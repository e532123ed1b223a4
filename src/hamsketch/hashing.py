"""Hash families for binary projections of symbol alphabets.

Two layers:

* FourWiseHash: a 4-wise independent function [0, 2^20) -> [0, 2^s], built as
  a degree-3 polynomial over GF(2^64) with carry-less multiplication, output
  truncated to the low s bits. Distinct inputs are distinct field points, so
  any four outputs are jointly uniform.

* XorTreeFamily: k = 2^t binary projections derived from 2t base functions
  arranged in t pairs, 1 <= t <= 62. Member i XORs one function per pair,
  chosen by bit b of i. Each member is 4-wise independent and distinct
  members are pairwise independent, while the count beta(u, v) of members
  hashing u and v together follows from two per-symbol values. Let Y(s) be
  the t-bit word whose bit b says whether base functions 2b and 2b + 1 differ
  on s, and P(s) the XOR of s's even base bits. Member i maps s to P(s) XOR
  parity(i & Y(s)). If Y(u) != Y(v) at some bit b, members i and i XOR 2^b
  give opposite verdicts on (u, v), so beta = k/2; otherwise (probability
  2^-t = 1/k for u != v) every member's verdict is P(u) == P(v), and beta
  is k or 0. In one number, the agreement

      A(u, v) = [Y(u) = Y(v)] * (-1)^(P(u) XOR P(v)) in {-1, 0, 1}

  is the members' mean of (-1)^(h_i(u) XOR h_i(v)), and beta = k/2 * (1 + A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import MASK64, ROLE_BASE_HASH, mix_array, splitmix64_array, u64_stream
from .gf64 import POINT_BITS, poly3_eval

MAX_OUT_BITS = 20
DOMAIN_CAP = 1 << POINT_BITS
# beta = k must fit in int64, and a signature holds Y's log2(k) bits above P
MAX_FAMILY_SIZE = 1 << 62
# eval_blocks evaluates at most this many (polynomial, point) cells per
# poly3_eval call
_EVAL_CELLS = 1 << 20


@dataclass(frozen=True)
class FourWiseHash:
    """Degree-3 polynomial hash over GF(2^64), truncated to out_bits bits."""

    coeffs: tuple[int, int, int, int]
    out_bits: int

    @property
    def range_size(self) -> int:
        return 1 << self.out_bits

    def eval(self, x: int) -> int:
        if not 0 <= x < DOMAIN_CAP:
            raise ValueError(f"hash input {x} outside [0, 2^{POINT_BITS})")
        c0, c1, c2, c3 = (np.uint64(c) for c in self.coeffs)
        val = poly3_eval(c3, c2, c1, c0, np.uint64(x))
        return int(val) & (self.range_size - 1)

    def eval_array(self, xs) -> np.ndarray:
        xs = np.asarray(xs)
        _, vals = next(eval_blocks(np.array([self.coeffs], dtype=np.uint64), xs.reshape(-1)))
        return (vals[0] & np.uint64(self.range_size - 1)).astype(np.int64).reshape(xs.shape)

    def table(self, sigma: int) -> np.ndarray:
        """Outputs for every symbol in [0, sigma)."""
        return self.eval_array(np.arange(sigma, dtype=np.int64))


def eval_blocks(coeffs: np.ndarray, xs):
    """Yield (lo, values) over blocks of the (rows, 4) coefficient array
    coeffs, each (c0, c1, c2, c3): values[r, i] is the untruncated value of
    polynomial lo + r at xs[i]. A block holds whole rows and at most
    _EVAL_CELLS cells (at least one row), one poly3_eval call each."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (xs.min() < 0 or xs.max() >= DOMAIN_CAP):
        raise ValueError(f"hash inputs outside [0, 2^{POINT_BITS})")
    bits = max(1, int(xs.max()).bit_length() if xs.size else 1)
    pts = xs.astype(np.uint64)[None, :]
    step = max(1, _EVAL_CELLS // max(1, xs.size))
    for lo in range(0, len(coeffs), step):
        cs = coeffs[lo : lo + step]
        yield lo, poly3_eval(cs[:, 3:4], cs[:, 2:3], cs[:, 1:2], cs[:, 0:1], pts, bits)


def fourwise_new(out_bits: int, seed: int) -> FourWiseHash:
    """Draw a 4-wise independent hash; all four coefficients come from the
    splitmix64 chain started at seed."""
    if not 1 <= out_bits <= MAX_OUT_BITS:
        raise ValueError(f"out_bits must be in [1, {MAX_OUT_BITS}], got {out_bits}")
    c0, c1, c2, c3 = u64_stream(seed, 4)
    return FourWiseHash(coeffs=(c0, c1, c2, c3), out_bits=out_bits)


def fourwise_coeffs(seeds) -> np.ndarray:
    """(len(seeds), 4) uint64 coefficients that fourwise_new draws at each of
    the uint64 seeds: the first four values of each seed's splitmix64 chain,
    all chains stepped together."""
    h = np.asarray(seeds, dtype=np.uint64)
    out = np.empty((h.size, 4), dtype=np.uint64)
    for c in range(4):
        h = out[:, c] = splitmix64_array(h)
    return out


@dataclass(frozen=True)
class XorTreeFamily:
    """k binary hash functions as XOR combinations of 2*log2(k) base hashes."""

    k: int
    seed: int
    base: tuple[FourWiseHash, ...]

    @property
    def pairs(self) -> int:
        return len(self.base) // 2


def family_new(k: int, seed: int) -> XorTreeFamily:
    return families_new(k, [seed])[0]


def families_new(k: int, seeds) -> list[XorTreeFamily]:
    """family_new(k, s) for every s in seeds. Base function j of seed s is
    fourwise_new(1, mix(s, ROLE_BASE_HASH, j)); the seeds and coefficients of
    every base function are drawn in one vectorised splitmix64 pass."""
    if k < 2 or (k & (k - 1)) != 0 or k > MAX_FAMILY_SIZE:
        raise ValueError(f"family size k must be a power of two in [2, 2^62], got {k}")
    n_base = 2 * (k.bit_length() - 1)
    seeds = list(seeds)
    top = np.array([int(s) & MASK64 for s in seeds], dtype=np.uint64)
    base_seeds = mix_array(top[:, None], ROLE_BASE_HASH, np.arange(n_base))
    hashes = [
        FourWiseHash(coeffs=tuple(c), out_bits=1)
        for c in fourwise_coeffs(base_seeds.reshape(-1)).tolist()
    ]
    return [
        XorTreeFamily(k=k, seed=s, base=tuple(hashes[f * n_base : (f + 1) * n_base]))
        for f, s in enumerate(seeds)
    ]


def member_eval(family: XorTreeFamily, i: int, u: int) -> int:
    """Bit output of member i on symbol u: XOR over pairs b of base[2b + bit_b(i)]."""
    if not 0 <= i < family.k:
        raise IndexError(f"member index {i} outside [0, {family.k})")
    out = 0
    for b in range(family.pairs):
        out ^= family.base[2 * b + ((i >> b) & 1)].eval(u)
    return out


def base_bits(families, symbols) -> np.ndarray:
    """(sum of 2*pairs, len(symbols)) uint8 matrix of base-function bits of
    the families, stacked family by family; one family gives (2*pairs, len).

    The coefficient rows of every base function are evaluated together in
    eval_blocks, so the poly3_eval calls do not grow with the families.
    """
    coeffs = np.array(
        [f.coeffs for fam in families for f in fam.base], dtype=np.uint64
    ).reshape(-1, 4)
    symbols = np.asarray(symbols, dtype=np.int64)
    out = np.empty((coeffs.shape[0], symbols.size), dtype=np.uint8)
    for lo, vals in eval_blocks(coeffs, symbols):
        out[lo : lo + vals.shape[0]] = vals & np.uint64(1)
    return out


def signatures(bits: np.ndarray) -> np.ndarray:
    """int64 signatures (..., symbols) of the symbols from one family's base
    bits (..., 2*pairs, symbols): bit 0 is P, the XOR of the even base bits,
    and bit b + 1 is Y_b, whether base functions 2b and 2b + 1 differ."""
    sig = np.bitwise_xor.reduce(bits[..., 0::2, :], axis=-2).astype(np.int64)
    for b in range(bits.shape[-2] // 2):
        sig |= (bits[..., 2 * b, :] ^ bits[..., 2 * b + 1, :]).astype(np.int64) << (b + 1)
    return sig


def family_signatures(families, symbols) -> np.ndarray:
    """(len(families), len(symbols)) signatures of the symbols under each of
    the families, all of one size, from one base_bits evaluation."""
    bits = base_bits(families, symbols)
    return signatures(bits.reshape(len(families), bits.shape[0] // len(families), bits.shape[1]))


def signature_agreement(sig_u: np.ndarray, sig_v: np.ndarray) -> np.ndarray:
    """int64 agreement A of the symbol pairs with signatures sig_u and
    sig_v, which broadcast: 1 where they are equal, -1 where they differ in P
    alone, 0 where Y differs."""
    diff = sig_u ^ sig_v
    return np.where(diff > 1, 0, 1 - 2 * diff)


def beta(family: XorTreeFamily, u: int, v: int) -> int:
    """Number of members with h_i(u) == h_i(v), in O(log k) hash evaluations."""
    sig = family_signatures([family], [u, v])[0]
    return family.k // 2 * (1 + int(signature_agreement(sig[0], sig[1])))
