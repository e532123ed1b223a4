"""Instance model: integer strings, profiles, file I/O.

Symbols are integers in [0, sigma) with sigma capped at 2^20 so per-symbol
alphabet scans stay cheap. Texts and patterns are immutable IntString values;
all generation is deterministic in the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._seeds import (
    MASK64,
    ROLE_PATTERN,
    ROLE_PLANT,
    ROLE_TEXT,
    mix,
    splitmix64_array,
)

SIGMA_CAP = 1 << 20
_GAMMA = np.uint64(0x9E3779B97F4A7C15)

MODELS = ("uniform", "planted_heavy", "few_pairs")

# planted_heavy: weight of the favored pattern symbol (symbol 0)
_HEAVY_PATTERN_WEIGHT = 0.6
# few_pairs: symbols in the tiled block, and the peak swap probability
_FEW_PAIRS_BLOCK = 8
_FEW_PAIRS_SWAP = 0.35


class FileFormatError(ValueError):
    """Raised when an instance or profile file cannot be parsed."""


@dataclass(frozen=True)
class IntString:
    """Immutable symbol sequence over the alphabet [0, sigma)."""

    symbols: np.ndarray
    sigma: int

    def __post_init__(self):
        arr = np.asarray(self.symbols)
        if arr.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if not 1 <= self.sigma <= SIGMA_CAP:
            raise ValueError(f"sigma must be in [1, {SIGMA_CAP}], got {self.sigma}")
        # a cast would truncate 0.7 to 0; NaN passes the range check and becomes -2**31
        if arr.size and arr.dtype.kind not in "biu":
            raise ValueError("symbols must be integers")
        # the range is checked before narrowing, which would wrap 2**32 + 1 to 1
        if arr.size and (arr.min() < 0 or arr.max() >= self.sigma):
            raise ValueError(f"symbols must lie in [0, {self.sigma})")
        arr = arr.astype(np.int32)
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return self.symbols.size


@dataclass(frozen=True)
class DistanceProfile:
    """Per-window distance values; kind is 'exact' or 'estimate'."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("exact", "estimate"):
            raise ValueError(f"kind must be 'exact' or 'estimate', got {self.kind!r}")
        dtype = np.int64 if self.kind == "exact" else np.float64
        raw = np.asarray(self.values)
        # checked before the cast, which turns NaN into an arbitrary integer
        if raw.dtype.kind == "f" and not np.isfinite(raw).all():
            raise ValueError("distances must be finite")
        arr = np.asarray(raw, dtype=dtype)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("profile must be a non-empty vector")
        if arr.min() < 0:
            raise ValueError("distances cannot be negative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_windows(self) -> int:
        return self.values.size


def _counter_draws(seed: int, count: int) -> np.ndarray:
    # splitmix64 in counter mode: draw i is finalize(seed + i*gamma)
    idx = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        states = np.uint64(seed & MASK64) + idx * _GAMMA
    return splitmix64_array(states)


def _draws_to_symbols(draws: np.ndarray, sigma: int) -> np.ndarray:
    # multiply-shift map to [0, sigma); bias <= sigma / 2^32
    return (((draws >> np.uint64(32)) * np.uint64(sigma)) >> np.uint64(32)).astype(np.int32)


def generate_instance(n: int, m: int, sigma: int, model: str, seed: int):
    """Deterministic (text, pattern) instance of the given model.

    uniform: i.i.d. symbols. planted_heavy: uniform text with a contiguous
    block overwritten by one symbol, against a pattern skewed toward symbol 0,
    which forces a heavy-hitter pair inside block windows. few_pairs: both
    strings tile a block of min(8, sigma // 2) distinct symbols; text position
    i swaps its symbol for a fixed partner outside the block with probability
    0.35 * (0.5 + 0.5 * sin(2*pi*i / (n/3))), so every window holds at most
    twice the block's size in mismatch pairs while its distance varies.
    """
    if m < 1:
        raise ValueError("pattern must be non-empty")
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    if sigma > SIGMA_CAP:
        raise ValueError(f"sigma must be <= {SIGMA_CAP}, got {sigma}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")

    text_draws = _counter_draws(mix(seed, ROLE_TEXT), n)
    pat_draws = _counter_draws(mix(seed, ROLE_PATTERN), m)

    if model == "uniform" or sigma == 1:
        text = _draws_to_symbols(text_draws, sigma)
        pattern = _draws_to_symbols(pat_draws, sigma)
    elif model == "few_pairs":
        text, pattern = _few_pairs(text_draws, m, sigma, seed)
    else:
        text = _draws_to_symbols(text_draws, sigma)
        # pattern: symbol 0 with weight ~0.6, otherwise uniform
        thresh = np.uint64(int(_HEAVY_PATTERN_WEIGHT * (1 << 24)))
        heavy = (pat_draws >> np.uint64(40)) & np.uint64((1 << 24) - 1)
        uni = (((pat_draws & np.uint64(0xFFFFFFFF)) * np.uint64(sigma)) >> np.uint64(32)).astype(np.int32)
        pattern = np.where(heavy < thresh, np.int32(0), uni)
        # plant a constant block of a non-favored symbol in the text
        plant = _counter_draws(mix(seed, ROLE_PLANT), 2)
        block_len = min(n, max(m, n // 4))
        start = int(plant[0] % np.uint64(n - block_len + 1))
        block_sym = 1 + int(plant[1] % np.uint64(sigma - 1))
        text[start : start + block_len] = block_sym

    return IntString(text, sigma), IntString(pattern, sigma)


def _few_pairs(text_draws: np.ndarray, m: int, sigma: int, seed: int):
    # block and partners: the first 2b symbols of a seeded alphabet order
    b = min(_FEW_PAIRS_BLOCK, sigma // 2)
    order = np.argsort(_counter_draws(mix(seed, ROLE_PLANT), sigma), kind="stable")
    block, partner = order[:b], order[b : 2 * b]
    n = text_draws.size
    pos = np.arange(n)
    rate = _FEW_PAIRS_SWAP * (0.5 + 0.5 * np.sin(6.0 * np.pi * pos / n))
    swap = (text_draws >> np.uint64(11)) * 2.0**-53 < rate
    text = np.where(swap, partner[pos % b], block[pos % b])
    return text, block[np.arange(m) % b]


def check_instance(text: IntString, pattern: IntString) -> tuple[int, int, int]:
    """(n, m, windows) of a text/pattern instance; ValueError when the
    alphabets differ or the pattern is empty or longer than the text."""
    if text.sigma != pattern.sigma:
        raise ValueError(f"alphabet mismatch: {text.sigma} vs {pattern.sigma}")
    n, m = len(text), len(pattern)
    if m < 1:
        raise ValueError("pattern must be non-empty")
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    return n, m, n - m + 1


def occurring_symbols(s: IntString) -> tuple[np.ndarray, np.ndarray]:
    """The sorted symbols occurring in s, and each position's index among them."""
    present = np.bincount(s.symbols, minlength=s.sigma) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[s.symbols]


# ----------------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------------

def read_tokens(path) -> IntString:
    """Token format: ASCII whitespace-separated decimals, first token = sigma."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not an ASCII token file ({exc})") from None
    if not tokens:
        raise FileFormatError(f"{path}: empty token file")
    values = []
    for t in tokens:
        try:
            values.append(int(t))
        except ValueError:
            raise FileFormatError(f"{path}: non-integer token {t!r}") from None
    sigma, symbols = values[0], values[1:]
    if not symbols:
        raise FileFormatError(f"{path}: no symbols after sigma header")
    try:
        return IntString(np.array(symbols, dtype=np.int64), sigma)
    except OverflowError:
        raise FileFormatError(f"{path}: symbol token outside the 64-bit range") from None
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def write_tokens(path, s: IntString) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(str(s.sigma))
        fh.write("\n")
        fh.write(" ".join(str(int(x)) for x in s.symbols))
        fh.write("\n")


def read_bytes(path) -> IntString:
    """Byte format: raw bytes, alphabet fixed at sigma = 256."""
    data = np.fromfile(path, dtype=np.uint8)
    if data.size == 0:
        raise FileFormatError(f"{path}: empty byte file")
    return IntString(data.astype(np.int32), 256)


def write_bytes(path, s: IntString) -> None:
    if s.sigma > 256:
        raise ValueError(f"byte format needs sigma <= 256, got {s.sigma}")
    s.symbols.astype(np.uint8).tofile(path)


def format_value(value, kind: str) -> str:
    if kind == "exact":
        return str(int(value))
    return repr(float(value))


def write_profile_csv(path, profile: DistanceProfile) -> None:
    """CSV with header pos,value; exact profiles print integers."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("pos,value\n")
        for pos, value in enumerate(profile.values):
            fh.write(f"{pos},{format_value(value, profile.kind)}\n")


def read_profile_csv(path) -> np.ndarray:
    """The values of a write_profile_csv file: its rows must number the
    windows 0, 1, ... in order, each with a finite distance >= 0."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["pos", "value"]:
            raise FileFormatError(f"{path}: expected header pos,value, got {header}")

        def bad(pos, problem):
            return FileFormatError(f"{path}, row {pos}: {problem}")

        values = []
        for pos, row in enumerate(reader):
            if len(row) != 2:
                raise bad(pos, f"malformed row {row}")
            if row[0] != str(pos):
                raise bad(pos, f"pos {row[0]!r}, expected {pos}")
            try:
                value = float(row[1])
            except ValueError:
                raise bad(pos, f"value {row[1]!r} is not a number") from None
            if not np.isfinite(value) or value < 0:
                raise bad(pos, f"value {row[1]!r} is not a finite distance >= 0")
            values.append(value)
    return np.asarray(values, dtype=np.float64)
