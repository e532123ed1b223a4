"""Sliding-window Hamming distance profiles: exact, baseline, and corrected
sketch estimators with per-window (1 +- eps) guarantees."""

from ._sketch import default_reps
from .approx import B_CONST, ApproxParams, approx_params, approx_profile
from .exact import hamming_profile_convolution, hamming_profile_naive
from .hashing import FourWiseHash, XorTreeFamily, beta, family_new, fourwise_new
from .karloff import KarloffParams, karloff_params, karloff_profile
from .noise_profile import NoiseProfile, top_pair_counts
from .pair_counts import PairCounts, pair_grid_pays, prepare_pair_counts
from .stats import error_stats, fraction_within_epsilon, relative_errors, within_epsilon
from .text_model import (
    DistanceProfile,
    FileFormatError,
    IntString,
    generate_instance,
    read_bytes,
    read_profile_csv,
    read_tokens,
    write_bytes,
    write_profile_csv,
    write_tokens,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxParams",
    "B_CONST",
    "DistanceProfile",
    "FileFormatError",
    "FourWiseHash",
    "IntString",
    "KarloffParams",
    "NoiseProfile",
    "PairCounts",
    "XorTreeFamily",
    "approx_params",
    "approx_profile",
    "beta",
    "default_reps",
    "error_stats",
    "family_new",
    "fourwise_new",
    "fraction_within_epsilon",
    "generate_instance",
    "hamming_profile_convolution",
    "hamming_profile_naive",
    "karloff_params",
    "karloff_profile",
    "pair_grid_pays",
    "prepare_pair_counts",
    "read_bytes",
    "read_profile_csv",
    "read_tokens",
    "relative_errors",
    "top_pair_counts",
    "within_epsilon",
    "write_bytes",
    "write_profile_csv",
    "write_tokens",
]
