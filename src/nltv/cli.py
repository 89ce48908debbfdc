"""Command-line surface: evaluation, verification, denoising, experiments.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input
(including non-finite values), 3 verification tolerance exceeded, 4 solver
non-convergence. Every run with identical flags and inputs produces
byte-identical outputs; report files carry a version/config-hash header line
for reproducibility.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .kernels import Kernel, KernelKind
from .minimize import (
    SCHEME_CLOSED_1D,
    SCHEME_CLOSED_2D,
    SCHEME_ORACLE,
    DataTerm,
    EnergyParams,
    SolverConfig,
    denoise,
    gamma_experiment,
)
from .oracle import OracleConfig, oracle_eval
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

_KERNELS = {k.value: k for k in KernelKind}


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
    header line is tolerated."""
    values = []
    header_seen = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
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


def _pgm_tokens(data: bytes):
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


def _plain_p2_pixels(raster: bytes, count: int):
    """The first ``count`` P2 pixels in one call if they are plain decimals
    of at most 9 digits (no comment, no uint32 overflow); else None."""
    words = raster.split()[:count]
    if len(words) == count and max(map(len, words)) <= 9 and b"".join(words).isdigit():
        return np.array(words, dtype=np.uint32)
    return None


def read_pgm(path: str):
    """P2/P5 grayscale image; returns (values in [0,1] of shape (rows, cols),
    maxval)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
    tokens = _pgm_tokens(data)
    pos, magic = next(tokens)
    if magic not in (b"P2", b"P5"):
        raise InputFormatError(f"{path}: not a PGM file (magic {magic!r})")
    header = []
    maxval_end = 0
    for name in ("width", "height", "maxval"):
        pos, tok = next(tokens)
        if tok is None:
            raise InputFormatError(f"{path}: truncated header, missing {name}")
        try:
            value = int(tok)
        except ValueError:
            raise InputFormatError(
                f"{path}: byte {pos}: bad {name} {tok!r}") from None
        if value <= 0:
            raise InputFormatError(f"{path}: byte {pos}: {name} must be positive")
        header.append(value)
        maxval_end = pos + len(tok)
    width, height, maxval = header
    if maxval > 65535:
        raise InputFormatError(f"{path}: maxval {maxval} exceeds 65535")
    count = width * height
    if magic == b"P2":
        pixels = _plain_p2_pixels(data[maxval_end:], count)
        if pixels is None:
            pixels = np.empty(count, dtype=np.uint32)
            for k in range(count):
                pos, tok = next(tokens)
                if tok is None:
                    raise InputFormatError(f"{path}: byte {pos}: expected "
                                           f"{count} pixels, got {k}")
                try:
                    pixels[k] = int(tok)
                except ValueError:
                    raise InputFormatError(
                        f"{path}: byte {pos}: bad pixel {tok!r}") from None
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


def write_pgm(path: str, values, maxval: int = 255, raw: bool = True) -> None:
    """Quantize values in [0, 1] to a P5 (or P2) PGM; round-trip error is at
    most 1/(2 maxval) per pixel."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError("PGM output needs a 2D array")
    if not 1 <= maxval <= 65535:
        raise ValueError("maxval must lie in [1, 65535]")
    quant = np.clip(np.rint(np.clip(arr, 0.0, 1.0) * maxval), 0, maxval)
    header = f"{'P5' if raw else 'P2'}\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if raw:
            dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
            fh.write(quant.astype(dtype).tobytes())
        else:
            for row in quant.astype(int):
                fh.write((" ".join(str(v) for v in row) + "\n").encode("ascii"))


def image_from_pgm(arr: np.ndarray) -> Image2D:
    """Pixel rows map to the y-axis and columns to the x-axis; the pair
    weights are symmetric under swapping the axes, so the orientation never
    affects a computed value."""
    if arr.shape[0] != arr.shape[1]:
        raise InputFormatError(
            f"square image required, got {arr.shape[0]}x{arr.shape[1]}")
    return Image2D(arr.copy())


def _config_hash(options: dict) -> str:
    blob = repr(sorted(options.items())).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _report_header(options: dict) -> str:
    return f"# nltv-version={__version__} config-hash={_config_hash(options)}"


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> _Parser:
    parser = _Parser(prog="nltv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a closed-form scheme")
    p_eval.add_argument("--family", required=True,
                        choices=["pc", "pc-wide", "spline", "haar", "image"])
    p_eval.add_argument("--input", help="CSV signal or PGM image")
    p_eval.add_argument("--kernel", choices=["disc", "square"], default="disc",
                        help="kernel for --family image")
    p_eval.add_argument("--scale", type=int, help="kernel scale for --family haar")
    p_eval.add_argument("--k", type=int, help="Haar level")
    p_eval.add_argument("--j", type=int, help="Haar position")

    p_table = sub.add_parser("table", help="emit golden value tables")
    p_table.add_argument("what", choices=["haar"])
    p_table.add_argument("--kmax", type=int, required=True)
    p_table.add_argument("--nmax", type=int, required=True)
    p_table.add_argument("--out", help="output CSV (default stdout)")

    p_verify = sub.add_parser("verify",
                              help="closed form vs oracle on a seeded random input")
    p_verify.add_argument("--family", required=True,
                          choices=["pc", "pc-wide", "spline", "image"])
    p_verify.add_argument("--kernel", choices=["disc", "square"], default="disc")
    p_verify.add_argument("--n", type=int, required=True, help="grid size")
    p_verify.add_argument("--samples", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--method", choices=["mc", "gauss"], default="mc")
    p_verify.add_argument("--tol", type=float, default=1e-2,
                          help="relative disagreement threshold")

    p_den = sub.add_parser("denoise", help="minimize the regularized energy")
    p_den.add_argument("--input", required=True, help="CSV signal or PGM image")
    p_den.add_argument("--alpha", type=float, required=True)
    p_den.add_argument("--p", type=float, default=1.0)
    p_den.add_argument("--kernel", choices=list(_KERNELS), help="default: box "
                       "for 1D input, disc for 2D input")
    p_den.add_argument("--scale", type=int,
                       help="kernel scale (default: matched to the grid)")
    p_den.add_argument("--solver", choices=["pd", "smooth"], default="pd")
    p_den.add_argument("--tol", type=float, default=1e-8)
    p_den.add_argument("--max-iter", type=int, default=100_000)
    p_den.add_argument("--out", required=True)
    p_den.add_argument("--trace", help="optional per-iteration energy CSV")

    p_gamma = sub.add_parser("gamma", help="kernel-scale convergence experiment")
    p_gamma.add_argument("--input", required=True, help="CSV signal")
    p_gamma.add_argument("--alpha", type=float, required=True)
    p_gamma.add_argument("--p", type=float, default=1.0)
    p_gamma.add_argument("--scales", required=True,
                         help="comma-separated increasing kernel scales")
    p_gamma.add_argument("--tol", type=float, default=1e-10)
    p_gamma.add_argument("--max-iter", type=int, default=100_000)
    p_gamma.add_argument("--out", required=True)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Validated run configuration (raises UsageError on any bad flag)."""
    args = build_parser().parse_args(argv)
    if args.command == "eval":
        if args.family == "haar":
            if args.k is None or args.j is None or args.scale is None:
                raise UsageError("--family haar needs --k, --j and --scale")
            if args.scale < 1:
                raise UsageError("--scale must be a positive integer")
        elif args.input is None:
            raise UsageError(f"--family {args.family} needs --input")
    if args.command == "table" and (args.kmax < 0 or args.nmax < 1):
        raise UsageError("need --kmax >= 0 and --nmax >= 1")
    if args.command == "verify":
        if args.n < 2:
            raise UsageError("--n must be at least 2")
        if args.samples < 10_000:
            raise UsageError("--samples must be at least 10000")
        if args.seed < 0:
            raise UsageError("--seed must be non-negative")
        if not args.tol > 0:
            raise UsageError("--tol must be positive")
    if args.command in ("denoise", "gamma"):
        if not args.alpha > 0:
            raise UsageError("alpha must be positive")
        if not 1 <= args.p < math.inf:
            raise UsageError("p must be >= 1 and finite")
        if not args.tol > 0 or args.max_iter < 1:
            raise UsageError("solver tolerances must be positive")
    if args.command == "denoise" and args.scale is not None and args.scale < 1:
        raise UsageError("--scale must be a positive integer")
    if args.command == "gamma":
        try:
            scales = [int(s) for s in args.scales.split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"bad --scales list: {args.scales!r}") from None
        if not scales or any(b <= a for a, b in zip(scales, scales[1:])):
            raise UsageError("--scales must be strictly increasing")
        args.scale_list = scales
    return args


# ---------------------------------------------------------------------------
# command handlers


def _cmd_eval(args) -> int:
    if args.family == "haar":
        value = eval_haar(HaarIndex(k=args.k, j=args.j), args.scale)
    elif args.family == "image":
        arr, _ = read_pgm(args.input)
        value = eval_image(image_from_pgm(arr), _KERNELS[args.kernel])
    else:
        signal = read_signal_csv(args.input)
        if args.family == "pc":
            value = eval_pc_box(PiecewiseConstant1D(signal))
        elif args.family == "pc-wide":
            value = eval_pc_box_wide(PiecewiseConstant1D(signal))
        else:
            value = eval_spline(Spline1D(signal))
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
        kind = _KERNELS[args.kernel]
        return img, Kernel(kind, args.n), eval_image(img, kind)
    if args.family == "spline":
        spline = Spline1D(rng.uniform(0.0, 1.0, args.n + 1))
        return spline, Kernel(KernelKind.BOX1D, args.n), eval_spline(spline)
    pc = PiecewiseConstant1D(rng.uniform(0.0, 1.0, args.n))
    if args.family == "pc-wide":
        return pc, Kernel(KernelKind.BOX1D_WIDE, args.n), eval_pc_box_wide(pc)
    return pc, Kernel(KernelKind.BOX1D, args.n), eval_pc_box(pc)


def _cmd_verify(args) -> int:
    f, kernel, closed = _verify_input(args)
    cfg = OracleConfig(method=args.method, samples=args.samples, seed=args.seed)
    report = oracle_eval(f, kernel, cfg)
    rel = abs(report.value - closed) / max(abs(closed), 1e-300)
    print(f"closed-form {format(closed, '.12g')}")
    print(f"oracle      {format(report.value, '.12g')}")
    print(f"rel-error   {format(rel, '.3e')} (tolerance {format(args.tol, '.3e')})")
    return 0 if rel <= args.tol else 3


def _load_denoise_input(path: str):
    if path.lower().endswith((".pgm", ".pnm")):
        arr, maxval = read_pgm(path)
        return image_from_pgm(arr).coeffs, maxval
    return read_signal_csv(path), None


def _cmd_denoise(args) -> int:
    values, maxval = _load_denoise_input(args.input)
    dim = values.ndim
    kernel_name = args.kernel or ("box" if dim == 1 else "disc")
    kind = _KERNELS[kernel_name]
    kernel = Kernel(kind, args.scale if args.scale is not None else values.shape[0])
    if kernel.dim != dim:
        raise UsageError(f"kernel {kernel_name!r} is {kernel.dim}D but the "
                         f"input is {dim}D")
    if kernel.n == values.shape[0]:
        scheme = SCHEME_CLOSED_1D if dim == 1 else SCHEME_CLOSED_2D
    else:
        scheme = SCHEME_ORACLE
    data = DataTerm.of(values)
    params = EnergyParams(p=args.p, alpha=args.alpha, kernel=kernel,
                          grid_n=values.shape[0], scheme=scheme)
    solver = SolverConfig(method=args.solver, tol=args.tol,
                          max_iter=args.max_iter)
    result = denoise(data, params, solver)
    options = {"command": "denoise", "input": args.input, "alpha": args.alpha,
               "p": args.p, "kernel": kernel_name, "scale": kernel.n,
               "solver": args.solver, "tol": args.tol,
               "max_iter": args.max_iter}
    if args.out.lower().endswith((".pgm", ".pnm")):
        if dim != 2:
            raise UsageError("PGM output requires a 2D input")
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
    values = read_signal_csv(args.input)
    data = DataTerm.of(values)
    solver = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    rows = gamma_experiment(data, args.p, args.alpha, args.scale_list, solver)
    options = {"command": "gamma", "input": args.input, "alpha": args.alpha,
               "p": args.p, "scales": tuple(args.scale_list),
               "tol": args.tol, "max_iter": args.max_iter}
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # library-level precondition failures surface as usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
