import numpy as np
import pytest

from hamsketch.pair_counts import prepare_pair_counts
from hamsketch.text_model import (
    MODELS,
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

from helpers import pair_count_matrix, sliding_hamming_brute


def test_intstring_validation():
    s = IntString(np.array([0, 1, 2]), 3)
    assert len(s) == 3
    assert not s.symbols.flags.writeable
    with pytest.raises(ValueError):
        IntString(np.array([[0, 1]]), 2)
    with pytest.raises(ValueError):
        IntString(np.array([0, 1]), 0)
    with pytest.raises(ValueError):
        IntString(np.array([0, 3]), 3)
    with pytest.raises(ValueError):
        IntString(np.array([-1]), 4)
    # out-of-range values must not wrap into range when narrowed to int32
    with pytest.raises(ValueError):
        IntString(np.array([2**32 + 1]), 4)
    with pytest.raises(ValueError):
        IntString(np.array([-(2**32) + 1]), 4)
    # non-integer symbols must not be truncated or cast into range
    with pytest.raises(ValueError, match="integers"):
        IntString(np.array([0.7, 1.2, 2.9]), 4)
    with pytest.raises(ValueError, match="integers"):
        IntString(np.array([0.0, np.nan]), 4)
    # booleans are integers, and an empty array of any dtype is accepted
    assert IntString(np.array([True, False]), 2).symbols.tolist() == [1, 0]
    assert len(IntString(np.array([], dtype=np.float64), 2)) == 0


def test_distance_profile_validation():
    p = DistanceProfile([1, 2, 0], "exact")
    assert p.values.dtype == np.int64
    assert p.n_windows == 3
    e = DistanceProfile([1.5, 0.0], "estimate")
    assert e.values.dtype == np.float64
    with pytest.raises(ValueError):
        DistanceProfile([1], "approx")
    with pytest.raises(ValueError):
        DistanceProfile([], "exact")
    with pytest.raises(ValueError):
        DistanceProfile([-1.0], "estimate")
    # a NaN estimate used to pass, and error_stats then read a NaN max error
    for bad in (np.nan, np.inf, -np.inf):
        for kind in ("estimate", "exact"):
            with pytest.raises(ValueError, match="distances must be finite"):
                DistanceProfile(np.array([bad, 1.0]), kind)


def test_generate_instance_shapes_and_determinism():
    for model in MODELS:
        t1, p1 = generate_instance(200, 30, 16, model, seed=9)
        t2, p2 = generate_instance(200, 30, 16, model, seed=9)
        assert len(t1) == 200 and len(p1) == 30
        assert t1.sigma == p1.sigma == 16
        assert np.array_equal(t1.symbols, t2.symbols)
        assert np.array_equal(p1.symbols, p2.symbols)
        t3, _ = generate_instance(200, 30, 16, model, seed=10)
        assert not np.array_equal(t1.symbols, t3.symbols)


def test_generate_instance_sigma_one_is_all_zeros():
    text, pattern = generate_instance(4, 2, 1, "uniform", seed=0)
    assert text.symbols.tolist() == [0, 0, 0, 0]
    assert pattern.symbols.tolist() == [0, 0]


def test_generate_instance_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_instance(4, 5, 2, "uniform", seed=0)
    with pytest.raises(ValueError):
        generate_instance(4, 0, 2, "uniform", seed=0)
    with pytest.raises(ValueError):
        generate_instance(4, 2, 0, "uniform", seed=0)
    with pytest.raises(ValueError):
        generate_instance(4, 2, 2, "adversarial", seed=0)


def test_planted_heavy_creates_heavy_pair_stretch():
    # inside the planted block one (u, v) pair should dominate the window's
    # mismatch mass; require a long contiguous stretch of such windows
    text, pattern = generate_instance(1 << 15, 1 << 9, 16, "planted_heavy", seed=3)
    dd = pair_count_matrix(prepare_pair_counts(text, pattern))
    off_diag = np.ones(dd.shape[0], dtype=bool)
    off_diag[:: 16 + 1] = False
    dd = dd[off_diag]
    total = dd.sum(axis=0)
    heavy = (dd.max(axis=0) >= 0.3 * total) & (total > 0)
    # longest run of heavy windows
    best = run = 0
    for flag in heavy:
        run = run + 1 if flag else 0
        best = max(best, run)
    assert best >= 1 << 9


def test_few_pairs_windows_hold_few_pairs_and_differ():
    # n=4096, m=512, sigma=64: at most 16 mismatch pairs per window (8 block
    # symbols, each against its shift or its partner), and the swap rate
    # moving along the text gives over a hundred distinct distances
    text, pattern = generate_instance(4096, 512, 64, "few_pairs", seed=1)
    assert np.unique(pattern.symbols).size == 8
    assert np.unique(text.symbols).size == 16
    pairs = prepare_pair_counts(text, pattern)
    per_window = np.count_nonzero(pairs.rows, axis=0) + np.bincount(
        pairs.windows, minlength=pairs.n_windows
    )
    assert per_window.max() <= 16
    assert np.unique(sliding_hamming_brute(text, pattern)).size > 100
    # tiny alphabets shrink the block to sigma // 2 symbols
    for sigma in (2, 3, 5):
        text, pattern = generate_instance(50, 7, sigma, "few_pairs", seed=2)
        assert np.unique(pattern.symbols).size == sigma // 2


def test_token_round_trip(tmp_path):
    s = IntString(np.array([5, 0, 3, 3, 1]), 6)
    path = tmp_path / "inst.txt"
    write_tokens(path, s)
    back = read_tokens(path)
    assert back.sigma == 6
    assert np.array_equal(back.symbols, s.symbols)


def test_token_errors_name_the_problem(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 1 two 3\n")
    with pytest.raises(FileFormatError, match="'two'"):
        read_tokens(path)
    path.write_text("")
    with pytest.raises(FileFormatError, match="empty"):
        read_tokens(path)
    path.write_text("4\n")
    with pytest.raises(FileFormatError, match="no symbols"):
        read_tokens(path)
    path.write_text("4 1 9\n")
    with pytest.raises(FileFormatError):
        read_tokens(path)
    path.write_text("16\n1 2 4294967299 5\n")
    with pytest.raises(FileFormatError, match=r"\[0, 16\)"):
        read_tokens(path)
    path.write_text("16\n1 99999999999999999999 5\n")
    with pytest.raises(FileFormatError, match="64-bit"):
        read_tokens(path)


def test_byte_round_trip(tmp_path):
    s = IntString(np.array([0, 255, 17]), 256)
    path = tmp_path / "inst.bin"
    write_bytes(path, s)
    back = read_bytes(path)
    assert back.sigma == 256
    assert np.array_equal(back.symbols, s.symbols)
    with pytest.raises(ValueError):
        write_bytes(path, IntString(np.array([300]), 400))
    path.write_bytes(b"")
    with pytest.raises(FileFormatError, match="empty"):
        read_bytes(path)


def test_profile_csv_round_trip(tmp_path):
    path = tmp_path / "prof.csv"
    write_profile_csv(path, DistanceProfile([3, 0, 12], "exact"))
    text = path.read_text()
    assert text.splitlines()[0] == "pos,value"
    assert text.splitlines()[1] == "0,3"
    assert np.array_equal(read_profile_csv(path), [3.0, 0.0, 12.0])

    est = DistanceProfile([2.25, 0.1], "estimate")
    write_profile_csv(path, est)
    # repr round-trips floats exactly
    assert np.array_equal(read_profile_csv(path), est.values)


def test_profile_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("window,value\n0,1\n")
    with pytest.raises(FileFormatError, match="header"):
        read_profile_csv(path)
    path.write_text("pos,value\n0,1,2\n")
    with pytest.raises(FileFormatError, match="malformed"):
        read_profile_csv(path)


@pytest.mark.parametrize(
    "rows, problem",
    [
        pytest.param("0,1\n1,abc\n", "row 1: value 'abc' is not a number", id="abc"),
        pytest.param("0,nan\n", "row 0: value 'nan' is not a finite distance", id="nan"),
        pytest.param("0,2\n1,inf\n", "row 1: value 'inf' is not a finite distance", id="inf"),
        pytest.param("0,-3\n", "row 0: value '-3' is not a finite distance", id="negative"),
        pytest.param("0,1\n2,1\n", "row 1: pos '2', expected 1", id="pos_skips"),
        pytest.param("x,1\n", "row 0: pos 'x', expected 0", id="pos_not_int"),
    ],
)
def test_profile_csv_rejects_bad_rows(tmp_path, rows, problem):
    path = tmp_path / "prof.csv"
    path.write_text("pos,value\n" + rows)
    with pytest.raises(FileFormatError) as err:
        read_profile_csv(path)
    assert str(err.value).startswith(f"{path}, {problem}")
