"""Command-line surface: evaluation, verification, denoising, experiments.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input
(including non-finite values and bad PGM pixels), 3 verification tolerance
exceeded, 4 solver non-convergence. Every run with identical flags and inputs
produces byte-identical outputs; report files carry a version/config-hash
header line for reproducibility.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import __version__
from .kernels import DEFAULT_KINDS, KINDS_2D, Kernel, KernelKind
from .minimize import (
    CLOSED_SCHEMES,
    PD_EXPONENTS,
    PRIMAL_DUAL,
    SCHEME_ORACLE,
    SOLVERS,
    DataTerm,
    EnergyParams,
    SolverConfig,
    denoise,
    gamma_experiment,
)
from .oracle import METHODS, OracleConfig, oracle_eval
from .schemes_1d import (
    HaarIndex,
    PiecewiseConstant1D,
    Spline1D,
    eval_haar,
    eval_pc_box,
    eval_pc_box_wide,
    eval_spline,
)
from .schemes_2d import Image2D, eval_image

# the magic, width, height and maxval, each after any whitespace and
# comments; a group is empty at the end of the data
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*)*(\S*)" * 4)
# a comment, if its '#' starts a token: it runs to the end of its line
_PGM_COMMENT = re.compile(rb"#[^\n]*")


class UsageError(Exception):
    pass


class InputFormatError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError so
    # main() can map it to the documented exit code 1
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# file I/O


def read_signal_csv(path: str) -> np.ndarray:
    """One finite real per line; ``#`` comments skipped; an optional single
    header line is tolerated, and so is a leading UTF-8 byte-order mark."""
    values = []
    header_seen = False
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: byte {exc.start}: not UTF-8 text") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            if not values and not header_seen:
                header_seen = True
                continue
            raise InputFormatError(
                f"{path}:{lineno}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise InputFormatError(f"{path}:{lineno}: not finite: {text!r}")
        values.append(value)
    if not values:
        raise InputFormatError(f"{path}: no numeric data found")
    return np.asarray(values, dtype=float)


def write_signal_csv(path: str, values, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(header + "\n")
        # one printf-style pass; "%.17g" % v is format(v, ".17g")
        flat = np.asarray(values, dtype=float).ravel().tolist()
        fh.write(("%.17g\n" * len(flat)) % tuple(flat))


def _pgm_number(tok: bytes) -> int:
    """The value of a PGM number, which is plain ASCII digits (no sign,
    underscore or other digit), or -1 for any other token."""
    try:
        return int(tok) if tok.isdigit() else -1
    except ValueError:  # more digits than int() converts
        return -1


def _blank_comment(match) -> bytes:
    """A comment as spaces, so that every token keeps its byte offset. A '#'
    inside a token and the rest of its line stay: that token is a bad pixel."""
    start = match.start()
    if start and not match.string[start - 1:start].isspace():
        return match.group()
    return b" " * (match.end() - start)


def read_pgm(path: str):
    """P2/P5 grayscale image; returns (values in [0,1] of shape (rows, cols),
    maxval)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
    header = _PGM_HEADER.match(data)
    magic = header.group(1) or None
    if magic not in (b"P2", b"P5"):
        raise InputFormatError(f"{path}: not a PGM file (magic {magic!r})")
    numbers = []
    for group, name in enumerate(("width", "height", "maxval"), start=2):
        pos, tok = header.start(group), header.group(group)
        if not tok:
            raise InputFormatError(f"{path}: truncated header, missing {name}")
        value = _pgm_number(tok)
        if value < 0:
            raise InputFormatError(f"{path}: byte {pos}: bad {name} {tok!r}")
        if value == 0:
            raise InputFormatError(f"{path}: byte {pos}: {name} must be positive")
        numbers.append(value)
    width, height, maxval = numbers
    if maxval > 65535:
        raise InputFormatError(f"{path}: maxval {maxval} exceeds 65535")
    count = width * height
    maxval_end = header.end(4)
    if magic == b"P2":
        raster = _PGM_COMMENT.sub(_blank_comment, data[maxval_end:])
        words = raster.split()[:count]
        try:
            # numpy converts through int(), which also takes a sign or an underscore
            pixels = np.array(words, dtype=np.uint32) if b"".join(words).isdigit() else None
        except (OverflowError, ValueError):  # 2^32 or more, or too many digits
            pixels = None
        if pixels is None or len(words) < count:
            # the first bad pixel read, else a short raster
            for tok, match in zip(words, re.finditer(rb"\S+", raster)):
                if not 0 <= _pgm_number(tok) < 2 ** 32:
                    raise InputFormatError(f"{path}: byte {maxval_end + match.start()}: "
                                           f"bad pixel {tok!r}")
            raise InputFormatError(f"{path}: byte {len(data)}: expected "
                                   f"{count} pixels, got {len(words)}")
    else:
        # single whitespace byte after the maxval token, then the raster
        start = maxval_end + 1
        depth = 1 if maxval < 256 else 2
        raster = data[start:start + count * depth]
        if len(raster) != count * depth:
            raise InputFormatError(
                f"{path}: byte {start + len(raster)}: raster truncated "
                f"({len(raster)} of {count * depth} bytes)")
        dtype = np.dtype(np.uint8) if depth == 1 else np.dtype(">u2")
        pixels = np.frombuffer(raster, dtype=dtype).astype(np.uint32)
    if np.any(pixels > maxval):
        raise InputFormatError(f"{path}: pixel value exceeds maxval {maxval}")
    arr = pixels.reshape(height, width).astype(float) / float(maxval)
    return arr, maxval


def write_pgm(path: str, values, maxval: int = 255) -> None:
    """Quantize values in [0, 1] to a binary (P5) PGM, the only kind written;
    round-trip error is at most 1/(2 maxval) per pixel."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError("PGM output needs a 2D array")
    if not 1 <= maxval <= 65535:
        raise ValueError("maxval must lie in [1, 65535]")
    quant = np.clip(np.rint(np.clip(arr, 0.0, 1.0) * maxval), 0, maxval)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n"
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(quant.astype(dtype).tobytes())


def image_from_pgm(arr: np.ndarray) -> Image2D:
    """Pixel rows map to the y-axis and columns to the x-axis; the pair
    weights are symmetric under swapping the axes, so the orientation never
    affects a computed value."""
    if arr.shape[0] != arr.shape[1]:
        raise InputFormatError(
            f"square image required, got {arr.shape[0]}x{arr.shape[1]}")
    return Image2D(arr.copy())


def _report_header(options: dict) -> str:
    import hashlib  # loads OpenSSL: only commands that write a header pay for it
    digest = hashlib.sha256(repr(sorted(options.items())).encode("utf-8")).hexdigest()
    return f"# nltv-version={__version__} config-hash={digest[:12]}"


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(cast, low, strict=False):
    """An argparse type: the flag as ``cast``, finite and at least ``low``
    (above it if ``strict``). An int compares with inf exactly, so an integer
    beyond the float range passes."""
    def parse(text):
        value = cast(text)
        if not low <= value < math.inf or strict and value == low:
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low:g}, got {text!r}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid ... value"
    return parse


def _scale_list(text: str) -> list:
    try:
        scales = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list: {text!r}") from None
    if not scales or any(b <= a for a, b in zip(scales, scales[1:])):
        raise argparse.ArgumentTypeError("must be strictly increasing")
    return scales


_POSITIVE = _at_least(float, 0.0, strict=True)
_COUNT = _at_least(int, 1)

# each 1D family: its element type, closed form, matched kernel, and the
# nodes its element holds beyond the n cells
_FAMILIES_1D = {
    "pc": (PiecewiseConstant1D, eval_pc_box, KernelKind.BOX1D, 0),
    "pc-wide": (PiecewiseConstant1D, eval_pc_box_wide, KernelKind.BOX1D_WIDE, 0),
    "spline": (Spline1D, eval_spline, KernelKind.BOX1D, 1),
}

# the family flags that each eval and verify --family reads; parse_args
# refuses the others and requires each one read but --kernel (unset: the 2D
# default kind)
_FAMILY_FLAGS = {
    "eval": {**dict.fromkeys(_FAMILIES_1D, ("--input",)),
             "haar": ("--k", "--j", "--scale"), "image": ("--input", "--kernel")},
    "verify": {**dict.fromkeys(_FAMILIES_1D, ()), "image": ("--kernel",)},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="nltv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a closed-form scheme")
    p_eval.add_argument("--family", required=True, choices=_FAMILY_FLAGS["eval"])
    p_eval.add_argument("--input", help="CSV signal or PGM image")
    p_eval.add_argument("--kernel", choices=KINDS_2D, help="kernel for --family image")
    p_eval.add_argument("--scale", type=_COUNT, help="kernel scale for --family haar")
    p_eval.add_argument("--k", type=int, help="Haar level")
    p_eval.add_argument("--j", type=int, help="Haar position")

    p_table = sub.add_parser("table", help="emit golden value tables")
    p_table.add_argument("what", choices=["haar"])
    p_table.add_argument("--kmax", type=_at_least(int, 0), required=True)
    p_table.add_argument("--nmax", type=_COUNT, required=True)
    p_table.add_argument("--out", help="output CSV (default stdout)")

    p_verify = sub.add_parser("verify",
                              help="closed form vs oracle on a seeded random input")
    p_verify.add_argument("--family", required=True, choices=_FAMILY_FLAGS["verify"])
    p_verify.add_argument("--kernel", choices=KINDS_2D)
    p_verify.add_argument("--n", type=_at_least(int, 2), required=True, help="grid size")
    p_verify.add_argument("--samples", type=int, default=OracleConfig.samples)
    p_verify.add_argument("--seed", type=int, default=OracleConfig.seed)
    p_verify.add_argument("--method", choices=METHODS, default=OracleConfig.method)
    p_verify.add_argument("--tol", type=_POSITIVE, default=1e-2,
                          help="relative disagreement threshold")

    p_den = sub.add_parser("denoise", help="minimize the regularized energy")
    p_gamma = sub.add_parser("gamma", help="kernel-scale convergence experiment")
    for cmd, source in ((p_den, "CSV signal or PGM image"), (p_gamma, "CSV signal")):
        cmd.add_argument("--input", required=True, help=source)
        cmd.add_argument("--alpha", type=_POSITIVE, required=True)
        cmd.add_argument("--p", type=_at_least(float, 1.0), default=1.0)
        cmd.add_argument("--tol", type=_POSITIVE)
        cmd.add_argument("--max-iter", type=_COUNT, default=SolverConfig.max_iter)
        cmd.add_argument("--out", required=True)
    p_den.add_argument("--kernel", choices=[k.value for k in KernelKind],
                       help=f"default: {DEFAULT_KINDS[1].value} for 1D input, "
                            f"{DEFAULT_KINDS[2].value} for 2D input")
    p_den.add_argument("--scale", type=_COUNT,
                       help="kernel scale (default: matched to the grid)")
    p_den.add_argument("--solver", choices=SOLVERS, default=SolverConfig.method)
    p_den.add_argument("--trace", help="optional per-iteration energy CSV")
    p_gamma.add_argument("--scales", type=_scale_list, required=True,
                         help="comma-separated increasing kernel scales")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Validated run configuration (raises UsageError on any bad flag)."""
    args = build_parser().parse_args(argv)
    if args.command in _FAMILY_FLAGS:
        reads = _FAMILY_FLAGS[args.command][args.family]
        for flag in ("--input", "--kernel", "--scale", "--k", "--j"):
            if getattr(args, flag[2:], None) is not None and flag not in reads:
                raise UsageError(f"--family {args.family} does not read {flag}")
        missing = [f for f in reads if f != "--kernel" and getattr(args, f[2:]) is None]
        if missing:
            raise UsageError(f"--family {args.family} needs {', '.join(missing)}")
    if args.command == "gamma" and args.p != 1.0:
        raise UsageError("gamma needs --p 1: the kernel-scale sweep is defined for p = 1")
    if args.command == "denoise" and args.solver == PRIMAL_DUAL:
        if args.p not in PD_EXPONENTS:
            raise UsageError("--solver pd needs --p 1 or 2; use --solver smooth "
                             "for other exponents")
        if args.p == 2.0 and args.tol is not None:
            raise UsageError("--solver pd --p 2 does not read --tol: it stops on "
                             "its duality gap")
    if args.command in ("denoise", "gamma") and args.tol is None:
        args.tol = SolverConfig.tol if args.command == "denoise" else 1e-10
    return args


# ---------------------------------------------------------------------------
# command handlers


def _cmd_eval(args) -> int:
    if args.family == "haar":
        value = eval_haar(HaarIndex(k=args.k, j=args.j), args.scale)
    elif args.family == "image":
        arr, _ = read_pgm(args.input)
        kind = KernelKind(args.kernel or DEFAULT_KINDS[2].value)
        value = eval_image(image_from_pgm(arr), kind)
    else:
        element, closed, _, _ = _FAMILIES_1D[args.family]
        value = closed(element(read_signal_csv(args.input)))
    print(format(value, ".12g"))
    return 0


def _cmd_table(args) -> int:
    lines = [_report_header({"command": "table", "what": args.what,
                             "kmax": args.kmax, "nmax": args.nmax}),
             "k,j,n,value"]
    for k in range(args.kmax + 1):
        positions = [0, 1] if k == 0 else list(range(1, 2 ** k + 1))
        for j in positions:
            for n in range(1, args.nmax + 1):
                value = eval_haar(HaarIndex(k=k, j=j), n)
                lines.append(f"{k},{j},{n},{format(value, '.17g')}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _verify_input(args):
    rng = np.random.default_rng(args.seed)
    if args.family == "image":
        img = Image2D(rng.uniform(0.0, 1.0, (args.n, args.n)))
        kind = KernelKind(args.kernel or DEFAULT_KINDS[2].value)
        return img, Kernel(kind, args.n), eval_image(img, kind)
    element, closed, kind, extra = _FAMILIES_1D[args.family]
    f = element(rng.uniform(0.0, 1.0, args.n + extra))
    return f, Kernel(kind, args.n), closed(f)


def _cmd_verify(args) -> int:
    cfg = OracleConfig(method=args.method, samples=args.samples, seed=args.seed)
    f, kernel, closed = _verify_input(args)
    report = oracle_eval(f, kernel, cfg)
    rel = abs(report.value - closed) / max(abs(closed), 1e-300)
    print(f"closed-form {format(closed, '.12g')}")
    print(f"oracle      {format(report.value, '.12g')}")
    print(f"rel-error   {format(rel, '.3e')} (tolerance {format(args.tol, '.3e')})")
    return 0 if rel <= args.tol else 3


def _solve_setup(args, **options):
    """The SolverConfig of a denoise or gamma run and the options its header hashes."""
    solver = SolverConfig(method=options.get("solver", SolverConfig.method),
                          tol=args.tol, max_iter=args.max_iter)
    return solver, {"command": args.command, "input": args.input, "alpha": args.alpha,
                    "p": args.p, "tol": args.tol, "max_iter": args.max_iter, **options}


def _cmd_denoise(args) -> int:
    if args.input.lower().endswith((".pgm", ".pnm")):
        arr, maxval = read_pgm(args.input)
        values = image_from_pgm(arr).coeffs
    else:
        values, maxval = read_signal_csv(args.input), None
    dim = values.ndim
    pgm_out = args.out.lower().endswith((".pgm", ".pnm"))
    if pgm_out and dim != 2:
        raise UsageError("PGM output requires a 2D input")
    kernel_name = args.kernel or DEFAULT_KINDS[dim].value
    kernel = Kernel(KernelKind(kernel_name), args.scale or values.shape[0])
    if kernel.dim != dim:
        raise UsageError(f"kernel {kernel_name!r} is {kernel.dim}D but the input is {dim}D")
    scheme = CLOSED_SCHEMES[dim] if kernel.n == values.shape[0] else SCHEME_ORACLE
    params = EnergyParams(p=args.p, alpha=args.alpha, kernel=kernel,
                          grid_n=values.shape[0], scheme=scheme)
    solver, options = _solve_setup(args, kernel=kernel_name, scale=kernel.n, solver=args.solver)
    result = denoise(DataTerm.of(values), params, solver)
    if pgm_out:
        write_pgm(args.out, result.minimizer, maxval=maxval or 255)
    else:
        write_signal_csv(args.out, result.minimizer.ravel(),
                         _report_header(options))
    if args.trace:
        write_signal_csv(args.trace, result.energy_trace,
                         _report_header({**options, "file": "trace"}))
    if not result.converged:
        print(f"solver did not converge within {args.max_iter} iterations",
              file=sys.stderr)
        return 4
    return 0


def _cmd_gamma(args) -> int:
    data = DataTerm.of(read_signal_csv(args.input))
    solver, options = _solve_setup(args, scales=tuple(args.scales))
    rows = gamma_experiment(data, args.p, args.alpha, args.scales, solver)
    lines = [_report_header(options), "scale,l1_distance,iterations,converged"]
    for row in rows:
        lines.append(f"{row.scale},{format(row.distance, '.17g')},"
                     f"{row.iterations},{int(row.converged)}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if any(not row.converged for row in rows):
        print("solver did not converge for at least one scale", file=sys.stderr)
        return 4
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "denoise": _cmd_denoise,
    "gamma": _cmd_gamma,
}


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return _HANDLERS[args.command](args)
    except (InputFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        # bad flags, and library-level precondition failures, are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
