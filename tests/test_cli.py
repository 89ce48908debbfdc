import itertools
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nltv
from nltv import Image2D, Kernel, KernelKind, OracleConfig, SolverConfig, cli, eval_image
from nltv import minimize, oracle
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
    # --tol resolves to each solve command's own default
    solve = ["--input", "s.csv", "--alpha", "0.1", "--out", "o.csv"]
    assert parse_args(["denoise", *solve]).tol == 1e-8
    assert parse_args(["gamma", *solve, "--scales", "2"]).tol == 1e-10
    assert parse_args(["denoise", *solve, "--p", "2"]).tol == 1e-8


_SOLVE_FLAGS = ["--input", "s.csv", "--alpha", "0.1", "--out", "o.csv"]
_COMMANDS = {
    "verify": ["verify", "--family", "pc", "--n", "3"],
    "denoise": ["denoise", *_SOLVE_FLAGS],
    "gamma": ["gamma", *_SOLVE_FLAGS, "--scales", "2"],
}
_IMAGE_KINDS = tuple(k.value for k in KernelKind if Kernel(k, 1).dim == 2)


def _choices(command, flag):
    sub = next(a for a in cli.build_parser()._actions if a.choices and command in a.choices)
    return next(a.choices for a in sub.choices[command]._actions if flag in a.option_strings)


@pytest.mark.parametrize("command, flag, owner", [
    ("verify", "samples", OracleConfig.samples),
    ("verify", "seed", OracleConfig.seed),
    ("verify", "method", OracleConfig.method),
    ("denoise", "max_iter", SolverConfig.max_iter),
    ("gamma", "max_iter", SolverConfig.max_iter),
    ("denoise", "solver", SolverConfig.method),
    ("denoise", "tol", SolverConfig.tol),
])
def test_parse_args_defaults_read_their_owner(command, flag, owner):
    assert getattr(parse_args(_COMMANDS[command]), flag) == owner


@pytest.mark.parametrize("command, flag, owner", [
    ("verify", "--method", (oracle.MONTE_CARLO, oracle.GAUSS)),
    ("denoise", "--solver", minimize.SOLVERS),
    ("eval", "--kernel", _IMAGE_KINDS),
    ("verify", "--kernel", _IMAGE_KINDS),
    ("denoise", "--kernel", tuple(k.value for k in KernelKind)),
])
def test_parse_args_choices_read_their_owner(command, flag, owner):
    assert tuple(_choices(command, flag)) == owner


def test_pd_exponents_have_one_owner():
    assert cli.PD_EXPONENTS is minimize.PD_EXPONENTS
    for p in minimize.PD_EXPONENTS:
        assert parse_args([*_COMMANDS["denoise"], "--p", repr(p)]).p == p
    with pytest.raises(UsageError, match="--solver pd needs --p 1 or 2"):
        parse_args([*_COMMANDS["denoise"], "--p", "1.5"])


def test_parse_args_follows_the_library_defaults(monkeypatch):
    # the defaults are read when the arguments are parsed, from their owner
    monkeypatch.setattr(SolverConfig, "max_iter", 321)
    monkeypatch.setattr(SolverConfig, "tol", 1e-5)
    monkeypatch.setattr(OracleConfig, "samples", 54_321)
    assert parse_args(_COMMANDS["denoise"]).max_iter == 321
    assert parse_args(_COMMANDS["gamma"]).max_iter == 321
    assert parse_args(_COMMANDS["denoise"]).tol == 1e-5
    assert parse_args(_COMMANDS["gamma"]).tol == 1e-10  # gamma's own
    assert parse_args(_COMMANDS["verify"]).samples == 54_321


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


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["denoise", "--input", "x.csv", "--alpha", "-1",
                 "--out", "y.csv"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["eval", "--family", "pc",
                 "--input", str(tmp_path / "nope.csv")]) == 2
    assert main(["eval", "--family", "image",
                 "--input", str(tmp_path / "nope.pgm")]) == 2
    assert capsys.readouterr().err.count("input error") == 2


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


def test_non_utf8_csv_is_an_input_error(tmp_path, capsys):
    # a UTF-16 file, with its byte-order mark, used to exit 1 as a usage error
    sig = tmp_path / "s.csv"
    sig.write_text("0.5\n0.25\n", encoding="utf-16")
    with pytest.raises(InputFormatError, match="s.csv"):
        read_signal_csv(str(sig))
    assert main(["eval", "--family", "pc", "--input", str(sig)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "pc", "--n", "4", "--tol", "inf"],
    ["verify", "--family", "pc", "--n", "4", "--tol", "nan"],
    ["verify", "--family", "pc", "--n", "1"],
    ["eval", "--family", "pc", "--input", "x.csv", "--scale", "0"],
    ["table", "haar", "--kmax", "-1", "--nmax", "4"],
    ["table", "haar", "--kmax", "1", "--nmax", "0"],
    ["denoise", "--input", "x.csv", "--alpha", "0.1", "--max-iter", "0", "--out", "y.csv"],
    ["denoise", "--input", "x.csv", "--alpha", "0.1", "--scale", "0", "--out", "y.csv"],
    ["gamma", "--input", "x.csv", "--alpha", "0.1", "--p", "0.5", "--scales", "2",
     "--out", "y.csv"],
    ["gamma", "--input", "x.csv", "--alpha", "0.1", "--scales", "2,x", "--out", "y.csv"],
], ids=["verify-tol-inf", "verify-tol-nan", "verify-n", "eval-scale", "kmax", "nmax",
        "max-iter", "denoise-scale", "p", "scales"])
def test_out_of_range_flags_are_usage_errors_before_any_input_is_read(capsys, argv):
    # each range is checked as its flag is parsed (an infinite verify --tol
    # used to pass every verification); x.csv does not exist, so a range
    # checked after the read would exit 2
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: argument --") and not captured.out


_IGNORED = (
    [("eval", family, flag) for family in ("pc", "pc-wide", "spline")
     for flag in ("--kernel", "--scale", "--k", "--j")]
    + [("eval", "image", flag) for flag in ("--scale", "--k", "--j")]
    + [("eval", "haar", flag) for flag in ("--input", "--kernel")]
    + [("verify", family, "--kernel") for family in ("pc", "pc-wide", "spline")])


@pytest.mark.parametrize("command, family, flag", _IGNORED,
                         ids=[" ".join(case) for case in _IGNORED])
def test_flags_the_family_does_not_read_are_usage_errors(tmp_path, capsys, command,
                                                         family, flag):
    # a flag that the family would ignore; the --input path does not exist,
    # so a refusal after the read would exit 2
    missing = str(tmp_path / ("nope.pgm" if family == "image" else "nope.csv"))
    values = {"--input": missing, "--kernel": "square", "--scale": "8",
              "--k": "1", "--j": "1"}
    argv = [command, "--family", family]
    if command == "verify":
        argv += ["--n", "4"]
    elif family == "haar":
        argv += ["--k", "0", "--j", "1", "--scale", "1"]
    else:
        argv += ["--input", missing]
    assert main(argv + [flag, values[flag]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --family {family} does not read {flag}\n"
    assert not captured.out


_SOLVE_REFUSALS = {
    "pd-p": (["denoise", "--p", "1.5"],
             "--solver pd needs --p 1 or 2; use --solver smooth for other exponents"),
    "gamma-p": (["gamma", "--p", "2", "--scales", "2"],
                "gamma needs --p 1: the kernel-scale sweep is defined for p = 1"),
    "pd-p2-tol": (["denoise", "--p", "2", "--tol", "1e-3"],
                  "--solver pd --p 2 does not read --tol: it stops on its duality gap"),
}


@pytest.mark.parametrize("name", sorted(_SOLVE_REFUSALS))
def test_solve_flags_that_cannot_go_together_are_usage_errors(tmp_path, capsys, name):
    # the --input path does not exist, so a refusal after the read would exit 2
    flags, message = _SOLVE_REFUSALS[name]
    argv = [*flags, "--input", str(tmp_path / "nope.csv"), "--alpha", "0.1",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert not captured.out


def test_image_kernel_is_disc_unless_given(tmp_path, capsys):
    img = tmp_path / "i.pgm"
    write_pgm(str(img), np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0]]))
    image = image_from_pgm(read_pgm(str(img))[0])
    expected = {kind: format(eval_image(image, kind), ".12g") + "\n"
                for kind in (KernelKind.DISC2D, KernelKind.SQUARE2D)}
    assert expected[KernelKind.DISC2D] != expected[KernelKind.SQUARE2D]
    assert main(["eval", "--family", "image", "--input", str(img)]) == 0
    assert capsys.readouterr().out == expected[KernelKind.DISC2D]
    assert main(["eval", "--family", "image", "--kernel", "square", "--input", str(img)]) == 0
    assert capsys.readouterr().out == expected[KernelKind.SQUARE2D]
    # verify draws its image from the seed, as uniform values on the n x n cells
    drawn = Image2D(np.random.default_rng(7).uniform(0.0, 1.0, (3, 3)))
    for flags, kind in (([], KernelKind.DISC2D), (["--kernel", "square"], KernelKind.SQUARE2D)):
        assert main(["verify", "--family", "image", "--n", "3", "--seed", "7",
                     "--method", "gauss", *flags]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"closed-form {format(eval_image(drawn, kind), '.12g')}"


def test_readme_commands_parse():
    # every nltv line of the README's command block passes parse_args, so
    # the documented commands cannot drift from the flag rules
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("nltv ")]
    assert len(commands) >= 8
    for command in commands:
        parse_args(command[1:])


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


def test_read_signal_csv_skips_a_byte_order_mark(tmp_path):
    # a leading BOM must not turn the first value into a skipped header
    path = tmp_path / "bom.csv"
    path.write_text("0.5\n1.0\n2.0\n", encoding="utf-8-sig")
    assert read_signal_csv(str(path)).tolist() == [0.5, 1.0, 2.0]
    path.write_text("value\n0.5\n1.0\n", encoding="utf-8-sig")
    assert read_signal_csv(str(path)).tolist() == [0.5, 1.0]


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
    # comments in the header, and in the raster too
    for raster in ("0 0\n255 255\n", "0 0 # a row\n# 7 7\n255 255\n"):
        path.write_text("P2\n# a comment\n2 2\n255\n" + raster)
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
    # half the files hold only plain decimal tokens, so that many are read
    # whole; trailing tokens and short rasters in both halves
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


def _byte_walk_tokens(data: bytes):
    """The byte-at-a-time PGM tokenizer that the one-pattern one replaced."""
    pos = 0
    while pos < len(data):
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
            continue
        if ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        yield pos, data[pos:end]
        pos = end
    while True:
        yield len(data), None


def _positional_outcome(path):
    """What read_pgm gave when it read a P2 file one byte-walk token at a
    time: like _read_outcome, the array and maxval or the error."""
    tokens = _byte_walk_tokens(Path(path).read_bytes())

    def fail(message):
        return InputFormatError, f"{path}: {message}"

    _, magic = next(tokens)
    if magic not in (b"P2", b"P5"):
        return fail(f"not a PGM file (magic {magic!r})")
    assert magic == b"P2"
    header = []
    for name in ("width", "height", "maxval"):
        pos, tok = next(tokens)
        if tok is None:
            return fail(f"truncated header, missing {name}")
        value = cli._pgm_number(tok)
        if value < 0:
            return fail(f"byte {pos}: bad {name} {tok!r}")
        if value == 0:
            return fail(f"byte {pos}: {name} must be positive")
        header.append(value)
    width, height, maxval = header
    if maxval > 65535:
        return fail(f"maxval {maxval} exceeds 65535")
    values = []
    for k in range(width * height):
        pos, tok = next(tokens)
        if tok is None:
            return fail(f"byte {pos}: expected {width * height} pixels, got {k}")
        value = cli._pgm_number(tok)
        if not 0 <= value < 2 ** 32:
            return fail(f"byte {pos}: bad pixel {tok!r}")
        values.append(value)
    if max(values) > maxval:
        return fail(f"pixel value exceeds maxval {maxval}")
    arr = np.array(values, dtype=float).reshape(height, width) / float(maxval)
    return arr.shape, arr.tobytes(), maxval


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_p2_files())
def test_p2_reader_matches_positional_reader(tmp_path, data):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    assert _read_outcome(str(path)) == _positional_outcome(str(path))


@settings(max_examples=2000, deadline=None)
@given(data=st.lists(st.sampled_from([b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c", b"#",
                                      b"0", b"7", b"-", b"\x1c", b"\xa0", b"\x00"]),
                     max_size=40).map(b"".join))
def test_pgm_tokens_match_the_byte_walk(data):
    walk = list(itertools.takewhile(lambda token: token[1] is not None,
                                    _byte_walk_tokens(data)))
    # the header pattern: the first four tokens, each empty at the end
    header = cli._PGM_HEADER.match(data)
    assert ([(header.start(g), header.group(g) or None) for g in range(1, 5)]
            == (walk + [(len(data), None)] * 4)[:4])
    # the comment blanking: the same tokens at the same offsets, up to the
    # first token that holds a '#', a bad pixel after which none is read
    blanked = cli._PGM_COMMENT.sub(cli._blank_comment, data)
    got = [(match.start(), match.group()) for match in re.finditer(rb"\S+", blanked)]
    stop = next((k + 1 for k, (_, tok) in enumerate(walk) if b"#" in tok), None)
    assert len(blanked) == len(data) and got[:stop] == walk[:stop]


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


@pytest.mark.parametrize("pixel", ["-3", "4294967296", "9" * 25])
def test_p2_pixel_out_of_range_is_an_input_error(tmp_path, capsys, pixel):
    text = f"P2\n2 2\n255\n0 {pixel} 0 0\n"
    img = tmp_path / "img.pgm"
    img.write_text(text)
    assert main(["eval", "--family", "image", "--input", str(img)]) == 2
    assert f"byte {text.index(pixel)}: bad pixel" in capsys.readouterr().err


@pytest.mark.parametrize("pixels", ["+5 1_0 0 7", "5 10 0 +7", "5 1_0 0 7"])
def test_p2_pixel_with_sign_or_underscore_is_an_input_error(tmp_path, capsys, pixels):
    text = f"P2\n2 2\n255\n{pixels}\n"
    bad = next(tok for tok in pixels.split() if not tok.isdigit())
    img = tmp_path / "img.pgm"
    img.write_text(text)
    assert main(["eval", "--family", "image", "--input", str(img)]) == 2
    assert f"byte {text.index(bad)}: bad pixel" in capsys.readouterr().err


@pytest.mark.parametrize("header, name", [
    ("+2 2\n255", "width"), ("2 2_0\n255", "height"), ("2 2\n+255", "maxval"),
    ("2 2\n-255", "maxval"), ("2 " + "9" * 5000 + "\n255", "height"),
])
def test_pgm_header_with_sign_or_underscore_is_an_input_error(tmp_path, capsys,
                                                             header, name):
    img = tmp_path / "img.pgm"
    img.write_text(f"P2\n{header}\n0 1 2 3\n")
    assert main(["eval", "--family", "image", "--input", str(img)]) == 2
    assert f"bad {name}" in capsys.readouterr().err


@pytest.mark.parametrize("header, message", [
    ("0 2\n255", "byte 3: width must be positive"),
    ("2 0\n255", "byte 5: height must be positive"),
    ("2 2\n0", "byte 7: maxval must be positive"),
    ("2 2\n65536", "maxval 65536 exceeds 65535"),
], ids=["width", "height", "maxval", "maxval-65536"])
def test_pgm_header_out_of_range_is_an_input_error(tmp_path, capsys, header, message):
    img = tmp_path / "img.pgm"
    img.write_text(f"P2\n{header}\n0 1 2 3\n")
    assert main(["eval", "--family", "image", "--input", str(img)]) == 2
    assert capsys.readouterr().err == f"input error: {img}: {message}\n"


def test_p2_header_size_is_checked_against_the_pixels(tmp_path, capsys):
    img = tmp_path / "img.pgm"
    img.write_text("P2\n1000000 1000000\n255\n0 1 2 3\n")
    assert main(["eval", "--family", "image", "--input", str(img)]) == 2
    assert "expected 1000000000000 pixels, got 4" in capsys.readouterr().err


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


@pytest.mark.parametrize("k, scale", [(1024, 3), (1, 10 ** 400), (700, 2 ** 700)],
                         ids=["level", "scale", "value"])
def test_eval_haar_overflow_is_a_usage_error(capsys, k, scale):
    # 2.0**k, float(scale) and the value itself overflow
    assert main(["eval", "--family", "haar", "--k", str(k), "--j", "1",
                 "--scale", str(scale)]) == 1
    assert capsys.readouterr().err.startswith(
        "usage error: the scale or value of HaarIndex(")


@pytest.mark.parametrize("family, values", [
    ("pc", "1.7e308,-1.7e308"), ("pc-wide", "1.7e308,-1.7e308"),
    ("spline", "1.7e308,-1.7e308,1"), ("spline", "0,1e200,0")],
    ids=["pc", "pc-wide", "spline-difference", "spline-square"])
def test_eval_closed_form_overflow_is_a_usage_error(tmp_path, capsys, family, values):
    # a difference, or the spline's edge-term square, overflows; a numpy
    # warning would fail this test, as RuntimeWarnings are errors here
    sig = tmp_path / "s.csv"
    sig.write_text(values.replace(",", "\n") + "\n")
    assert main(["eval", "--family", family, "--input", str(sig)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: the value of the closed form is beyond "
                            "the float range\n")


def test_eval_haar_near_the_float_limit_is_finite(capsys):
    # at n = 2^k the value grows as 2^(1.5 k), past the float range from k = 683
    assert main(["eval", "--family", "haar", "--k", "682", "--j", "1",
                 "--scale", str(2 ** 682)]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


def test_table_haar_golden_values(tmp_path, capsys):
    # without --out the table goes to stdout
    out = tmp_path / "small.csv"
    assert main(["table", "haar", "--kmax", "0", "--nmax", "2"]) == 0
    printed = capsys.readouterr().out
    assert main(["table", "haar", "--kmax", "0", "--nmax", "2", "--out", str(out)]) == 0
    assert printed == out.read_text() and printed.count("\n") == 6
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


def test_verify_sample_floor_binds_monte_carlo_only(capsys):
    # the floor lives in OracleConfig; Gauss quadrature ignores the budget
    assert main(["verify", "--family", "pc", "--n", "3", "--samples", "50"]) == 1
    assert (capsys.readouterr().err
            == "usage error: Monte Carlo needs at least 10000 samples\n")
    assert main(["verify", "--family", "pc", "--n", "4", "--method", "gauss",
                 "--samples", "5000"]) == 0


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("method", ["mc", "gauss"])
def test_verify_seed_beyond_64_bits_is_a_usage_error(capsys, method, seed):
    # seeds stay the 64-bit words that the MC streams have always taken
    assert main(["verify", "--family", "pc", "--n", "4", "--method", method,
                 "--seed", str(seed)]) == 1
    assert (capsys.readouterr().err
            == "usage error: seed must be a non-negative integer below 2**64\n")


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


def test_pgm_output_of_1d_input_fails_before_the_solve(tmp_path, capsys, monkeypatch):
    sig = tmp_path / "d.csv"
    write_signal_csv(str(sig), np.zeros(4))

    def no_solve(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "denoise", no_solve)
    assert main(["denoise", "--input", str(sig), "--alpha", "0.1",
                 "--out", str(tmp_path / "x.pgm")]) == 1
    assert "PGM output requires a 2D input" in capsys.readouterr().err
    assert main(["denoise", "--input", str(sig), "--alpha", "0.1", "--kernel", "disc",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert (capsys.readouterr().err
            == "usage error: kernel 'disc' is 2D but the input is 1D\n")


def test_denoise_non_convergence_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(8)
    sig = tmp_path / "d.csv"
    write_signal_csv(str(sig), rng.standard_normal(12))
    out = tmp_path / "out.csv"
    code = main(["denoise", "--input", str(sig), "--alpha", "0.05",
                 "--out", str(out), "--max-iter", "2", "--tol", "1e-16"])
    assert code == 4
    assert "did not converge" in capsys.readouterr().err


def test_gamma_command(tmp_path, capsys):
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
    assert main(["gamma", "--input", str(sig), "--alpha", "0.004",
                 "--scales", "2,4,8", "--max-iter", "1", "--out", str(out)]) == 4
    assert (capsys.readouterr().err
            == "solver did not converge for at least one scale\n")


def test_write_pgm_refuses_other_arrays_and_maxvals(tmp_path):
    with pytest.raises(ValueError, match="needs a 2D array"):
        write_pgm(str(tmp_path / "a.pgm"), np.zeros(4))
    with pytest.raises(ValueError, match=r"maxval must lie in \[1, 65535\]"):
        write_pgm(str(tmp_path / "b.pgm"), np.zeros((2, 2)), maxval=0)


def test_eval_of_a_csv_loads_no_openssl(tmp_path):
    # hashlib, and with it OpenSSL's _hashlib, is imported only to hash a
    # report header, which eval does not write
    sig = tmp_path / "s.csv"
    sig.write_text("0\n1\n")
    src = str(Path(nltv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from nltv.cli import main; "
            f"code = main(['eval', '--family', 'pc', '--input', {str(sig)!r}]); "
            "print(code, '_hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1", "0", "False"]


def test_cli_runs_are_byte_identical(tmp_path):
    rng = np.random.default_rng(10)
    sig = tmp_path / "d.csv"
    write_signal_csv(str(sig), rng.standard_normal(16))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["denoise", "--input", str(sig), "--alpha", "0.02",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
