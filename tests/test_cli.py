import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nltv import cli
from nltv.cli import (
    InputFormatError,
    UsageError,
    image_from_pgm,
    main,
    parse_args,
    read_pgm,
    read_signal_csv,
    write_pgm,
    write_signal_csv,
)


def run(argv, capsys=None):
    code = main(argv)
    return code


# ---------------------------------------------------------------------------
# parsing


def test_parse_args_defaults():
    args = parse_args(["eval", "--family", "pc", "--input", "s.csv"])
    assert args.command == "eval" and args.family == "pc"
    args = parse_args(["verify", "--family", "image", "--kernel", "disc",
                       "--n", "3", "--samples", "100000", "--seed", "7"])
    assert (args.n, args.samples, args.seed) == (3, 100000, 7)
    assert args.method == "mc"


def test_parse_args_rejects_bad_flags():
    with pytest.raises(UsageError):
        parse_args(["denoise", "--input", "x.csv", "--alpha", "-1",
                    "--out", "y.csv"])
    with pytest.raises(UsageError):
        parse_args(["frobnicate"])
    with pytest.raises(UsageError):
        parse_args(["eval", "--family", "pc"])  # missing input
    with pytest.raises(UsageError):
        parse_args(["eval", "--family", "haar"])  # missing k/j/scale
    with pytest.raises(UsageError):
        parse_args(["gamma", "--input", "x.csv", "--alpha", "0.1",
                    "--scales", "4,2", "--out", "y.csv"])
    with pytest.raises(UsageError):
        parse_args(["verify", "--family", "pc", "--n", "3", "--samples", "50"])


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["denoise", "--input", "x.csv", "--alpha", "-1",
                 "--out", "y.csv"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["eval", "--family", "pc",
                 "--input", str(tmp_path / "nope.csv")]) == 2


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_non_finite_csv_is_an_input_error(tmp_path, capsys, token):
    sig = tmp_path / "s.csv"
    sig.write_text(f"0.5\n{token}\n0.25\n")
    with pytest.raises(InputFormatError, match="s.csv:2"):
        read_signal_csv(str(sig))
    assert main(["eval", "--family", "pc", "--input", str(sig)]) == 2
    assert main(["denoise", "--input", str(sig), "--alpha", "0.01",
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.count("input error") == 2


@pytest.mark.parametrize("command", ["denoise", "gamma"])
@pytest.mark.parametrize("flag", ["--alpha", "--tol"])
@pytest.mark.parametrize("token", ["inf", "nan"])
def test_non_finite_solver_flags_are_usage_errors(tmp_path, capsys, command, flag,
                                                  token):
    # a solve with an infinite alpha would run every iteration and write the
    # noisy input; one with an infinite tol would stop at once as converged
    # (the flag is given twice; the last value counts)
    sig = tmp_path / "s.csv"
    write_signal_csv(str(sig), np.linspace(0.0, 1.0, 16))
    out = tmp_path / "out.csv"
    argv = [command, "--input", str(sig), "--alpha", "0.01", "--out", str(out)]
    if command == "gamma":
        argv += ["--scales", "2,4"]
    argv += [flag, token]
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token", ["inf", "nan"])
def test_non_finite_p_is_a_usage_error(tmp_path, capsys, token):
    # the smooth solver takes any p >= 1: a nan or infinite p ran every
    # iteration, exited 4 and wrote the unchanged input
    sig = tmp_path / "s.csv"
    write_signal_csv(str(sig), np.linspace(0.0, 1.0, 16))
    out = tmp_path / "out.csv"
    assert main(["denoise", "--input", str(sig), "--alpha", "0.1", "--p", token,
                 "--solver", "smooth", "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# signal and image I/O


def test_read_signal_csv(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# comment\nvalue\n0\n1.5 # inline\n\n-2e-1\n")
    got = read_signal_csv(str(path))
    assert got.tolist() == [0.0, 1.5, -0.2]
    bad = tmp_path / "bad.csv"
    bad.write_text("1\ntwo\n3\n")
    with pytest.raises(InputFormatError, match="bad.csv:2"):
        read_signal_csv(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(InputFormatError):
        read_signal_csv(str(empty))


def test_write_signal_csv_matches_per_value_loop(tmp_path):
    rng = np.random.default_rng(41)
    values = rng.standard_normal(16_384) * 10.0 ** rng.integers(-300, 300, 16_384)
    values[:9] = [0.0, -0.0, 5e-324, 0.1, 1e16, math.pi, math.inf, -math.inf, math.nan]
    path = tmp_path / "s.csv"
    write_signal_csv(str(path), values.reshape(128, 128), header="# hdr")
    expected = "# hdr\n" + "".join(format(float(v), ".17g") + "\n" for v in values)
    assert path.read_bytes() == expected.encode("ascii")


def test_signal_roundtrip(tmp_path):
    path = tmp_path / "sig.csv"
    values = np.random.default_rng(0).standard_normal(17)
    write_signal_csv(str(path), values, header="# hdr")
    assert np.array_equal(read_signal_csv(str(path)), values)


def test_p2_pgm_example(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n# a comment\n2 2\n255\n0 0\n255 255\n")
    arr, maxval = read_pgm(str(path))
    assert maxval == 255
    assert arr.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert image_from_pgm(arr).coeffs.tolist() == [[0.0, 0.0], [1.0, 1.0]]


_PLAIN_TOKEN = st.integers(0, 70_000).map(str)
_ANY_TOKEN = st.one_of(
    _PLAIN_TOKEN,
    st.sampled_from(["+5", "1_0", "-3", "007", "4294967295", "4294967296",
                     "99999999999999999999999", "5.0", "x", "\u0663", "12#c"]))
_SEPARATORS = st.sampled_from([" ", "\n", "\t", "\r\n", " \x0b", "\x0c", "\n# 7 c\n", " #8\n"])


@st.composite
def _p2_files(draw):
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 255, 300, 65535]))
    # half the files hold only plain decimal tokens, so the one-conversion
    # path is taken often; trailing tokens and short rasters in both halves
    tokens = _PLAIN_TOKEN if draw(st.booleans()) else _ANY_TOKEN
    words = draw(st.lists(tokens, max_size=width * height + 3))
    seps = draw(st.lists(_SEPARATORS if draw(st.booleans()) else st.just(" "),
                         min_size=len(words), max_size=len(words)))
    text = f"P2\n{width} {height}\n{maxval}" + "".join(
        sep + word for sep, word in zip(seps, words))
    data = text.encode("utf-8") + draw(st.sampled_from([b"", b"\n", b" "]))
    cut = draw(st.integers(0, len(data)))
    return data[:cut] if draw(st.booleans()) else data


def _read_outcome(path):
    try:
        arr, maxval = read_pgm(path)
    except Exception as exc:
        return type(exc), str(exc)
    return arr.shape, arr.tobytes(), maxval


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_p2_files())
def test_p2_fast_path_matches_positional_reader(tmp_path, data):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    got = _read_outcome(str(path))
    with mock.patch.object(cli, "_plain_p2_pixels", return_value=None):
        assert _read_outcome(str(path)) == got


def test_p5_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (5, 5))
    for maxval in (255, 65535):
        path = tmp_path / f"im{maxval}.pgm"
        write_pgm(str(path), img, maxval=maxval)
        back, got_maxval = read_pgm(str(path))
        assert got_maxval == maxval
        assert np.max(np.abs(back - img)) <= 1.0 / (2 * maxval)


def test_pgm_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n2 2\n255\n")
    with pytest.raises(InputFormatError, match="magic"):
        read_pgm(str(bad))
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(InputFormatError, match="truncated"):
        read_pgm(str(trunc))
    rect = tmp_path / "rect.pgm"
    write_pgm(str(rect), np.zeros((2, 3)))
    arr, _ = read_pgm(str(rect))
    with pytest.raises(InputFormatError, match="square"):
        image_from_pgm(arr)


# ---------------------------------------------------------------------------
# commands


def test_eval_commands(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    sig.write_text("0\n1\n")
    assert main(["eval", "--family", "pc", "--input", str(sig)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", "--family", "haar", "--k", "0", "--j", "1",
                 "--scale", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2 * math.log(2))
    img = tmp_path / "i.pgm"
    write_pgm(str(img), np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert main(["eval", "--family", "image", "--kernel", "disc",
                 "--input", str(img)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(10 / (6 * math.pi))


def test_table_haar_golden_values(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["table", "haar", "--kmax", "2", "--nmax", "8",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# nltv-version=")
    assert lines[1] == "k,j,n,value"
    rows = {tuple(line.split(",")[:3]): line.split(",")[3]
            for line in lines[2:]}
    assert float(rows[("0", "0", "3")]) == 0.0
    assert float(rows[("0", "1", "1")]) == 2 * math.log(2)
    assert float(rows[("0", "1", "5")]) == 2.0
    assert float(rows[("2", "1", "8")]) == 3 * math.sqrt(4)
    assert float(rows[("2", "2", "8")]) == 4 * math.sqrt(4)


def test_verify_within_tolerance(capsys):
    assert main(["verify", "--family", "pc", "--n", "6",
                 "--samples", "50000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "closed-form" in out and "oracle" in out


def test_verify_exit_three_when_tolerance_exceeded(capsys):
    # Monte Carlo noise cannot reach 1e-12 relative agreement here
    code = main(["verify", "--family", "pc-wide", "--n", "8",
                 "--samples", "20000", "--seed", "5", "--tol", "1e-12"])
    assert code == 3


def test_denoise_csv_matches_taut_string(tmp_path):
    rng = np.random.default_rng(6)
    d = rng.standard_normal(16).cumsum() / 4
    sig = tmp_path / "d.csv"
    write_signal_csv(str(sig), d)
    out = tmp_path / "out.csv"
    trace = tmp_path / "trace.csv"
    assert main(["denoise", "--input", str(sig), "--alpha", "0.01",
                 "--out", str(out), "--trace", str(trace),
                 "--tol", "1e-14"]) == 0
    from nltv import taut_string_1d
    got = read_signal_csv(str(out))
    exact = taut_string_1d(read_signal_csv(str(sig)), 0.01 * 16)
    assert np.max(np.abs(got - exact)) < 1e-6
    energies = read_signal_csv(str(trace))
    assert np.all(np.diff(energies) <= 1e-12)


def test_denoise_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    img = tmp_path / "in.pgm"
    write_pgm(str(img), rng.uniform(0, 1, (6, 6)))
    out = tmp_path / "out.pgm"
    assert main(["denoise", "--input", str(img), "--alpha", "0.005",
                 "--out", str(out)]) == 0
    arr, maxval = read_pgm(str(out))
    assert arr.shape == (6, 6) and maxval == 255


def test_denoise_non_convergence_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(8)
    sig = tmp_path / "d.csv"
    write_signal_csv(str(sig), rng.standard_normal(12))
    out = tmp_path / "out.csv"
    code = main(["denoise", "--input", str(sig), "--alpha", "0.05",
                 "--out", str(out), "--max-iter", "2", "--tol", "1e-16"])
    assert code == 4
    assert "did not converge" in capsys.readouterr().err


def test_gamma_command(tmp_path):
    x = np.arange(32) / 32
    d = (x >= 0.5).astype(float) + 0.05 * np.random.default_rng(9).standard_normal(32)
    sig = tmp_path / "d.csv"
    write_signal_csv(str(sig), d)
    out = tmp_path / "report.csv"
    assert main(["gamma", "--input", str(sig), "--alpha", "0.004",
                 "--scales", "2,4,8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "scale,l1_distance,iterations,converged"
    scales = [int(line.split(",")[0]) for line in lines[2:]]
    assert scales == [2, 4, 8]


def test_cli_runs_are_byte_identical(tmp_path):
    rng = np.random.default_rng(10)
    sig = tmp_path / "d.csv"
    write_signal_csv(str(sig), rng.standard_normal(16))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["denoise", "--input", str(sig), "--alpha", "0.02",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
