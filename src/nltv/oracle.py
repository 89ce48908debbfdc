"""Independent numerical evaluation of the nonlocal functional.

Evaluates the double integral

    R(f) = integral over Omega x Omega of |f(x)-f(y)|^p / |x-y|^p phi(x-y)

directly from its definition, without reusing any of the closed-form schemes.
Two methods are available:

* ``gauss``: composite Gauss-Legendre quadrature through one panel rule,
  ``_panel_nodes``, applied to whole arrays of panels. For piecewise-constant
  inputs the integral reduces exactly (Fubini) to per-cell-pair geometric
  factors, in 2D in polar coordinates with one array pass per angular panel;
  for splines and callbacks a band |x - y| < delta is excluded and the value
  extrapolated linearly in delta.
* ``mc``: stratified Monte Carlo through one sampler, ``_stratified_mc``,
  with one counter-based stream per task derived from (seed, task id), so
  results are reproducible bit for bit regardless of evaluation order.

Geometric factors depend only on the relative cell offset and are cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .kernels import Kernel, KernelKind
from .schemes_1d import PiecewiseConstant1D, Spline1D
from .schemes_2d import Image2D, StencilWeights
from .stencil import Stencil, in_reach, offsets_within_reach

GAUSS = "gauss"
MONTE_CARLO = "mc"

_MIN_MC_SAMPLES = 10_000
_STRATA_1D = 16


@dataclass(frozen=True)
class OracleConfig:
    """Evaluation policy for the oracle.

    ``samples`` is the total Monte Carlo budget for one evaluation, split
    evenly over the active integration tasks. ``points_per_cell_axis`` is the
    Gauss-Legendre order used on every quadrature panel.
    """

    method: str = MONTE_CARLO
    samples: int = 100_000
    points_per_cell_axis: int = 8
    seed: int = 0
    p: float = 1.0
    exclusion_band: float = 1e-6

    def __post_init__(self):
        if self.method not in (GAUSS, MONTE_CARLO):
            raise ValueError(f"method must be '{GAUSS}' or '{MONTE_CARLO}'")
        if self.method == MONTE_CARLO and self.samples < _MIN_MC_SAMPLES:
            raise ValueError(f"Monte Carlo needs at least {_MIN_MC_SAMPLES} samples")
        if not 2 <= self.points_per_cell_axis <= 64:
            raise ValueError("points_per_cell_axis must lie in [2, 64]")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p}")
        if not 0 < self.exclusion_band < 1e-2:
            raise ValueError("exclusion_band must lie in (0, 1e-2)")


@dataclass(frozen=True)
class EvalReport:
    """Oracle estimate with its error channel.

    ``stderr_estimate`` is the Monte Carlo standard error (zero for Gauss);
    ``richardson_delta`` is the Gauss refinement difference (zero for MC).
    """

    value: float
    stderr_estimate: float
    richardson_delta: float
    config: OracleConfig

    def __post_init__(self):
        if self.value < 0 or not math.isfinite(self.stderr_estimate):
            raise ValueError("malformed report")


def _stream(seed: int, task: int) -> np.random.Generator:
    # one independent counter-based stream per (seed, task)
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(task)]))


@lru_cache(maxsize=None)
def _gauss_rule(g: int):
    nodes, weights = np.polynomial.legendre.leggauss(g)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_nodes(edges: np.ndarray, g: int):
    """Gauss-Legendre nodes and weights of every panel along the last axis of
    ``edges``, each shaped (..., panels, g)."""
    nodes, weights = _gauss_rule(g)
    lo = edges[..., :-1, None]
    hi = edges[..., 1:, None]
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * nodes, half * weights


def _gauss_on_panels(fn, edges: np.ndarray, g: int) -> float:
    """Composite Gauss-Legendre of a vectorized integrand over panel edges."""
    pts, wts = _panel_nodes(edges, g)
    return float(np.sum(wts * fn(pts.ravel()).reshape(pts.shape)))


def _refine(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def _stratified_mc(fn, axes, nsamples: int, rng):
    """Stratified uniform MC of a vectorized integrand of len(axes) variables.

    ``axes`` holds one edge list per axis; the strata are the boxes of their
    product grid, first axis outermost. Each box draws its share of the budget
    once per axis, in axis order, and calls ``fn`` on the draws. Returns the
    estimate and its standard error.
    """
    boxes = list(itertools.product(*(zip(e[:-1], e[1:]) for e in axes)))
    per = max(2, nsamples // len(boxes))
    total = 0.0
    var = 0.0
    for box in boxes:
        vol = math.prod(hi - lo for lo, hi in box)
        vals = fn(*(rng.uniform(lo, hi, per) for lo, hi in box))
        total += vol * float(vals.mean())
        var += (vol * float(vals.std(ddof=1)) / math.sqrt(per)) ** 2
    return total, math.sqrt(var)


def _tent(t: np.ndarray, d: int, h: float) -> np.ndarray:
    # correlation length of two cells of width h at index distance d
    return np.maximum(h - np.abs(t - d * h), 0.0)


# ---------------------------------------------------------------------------
# geometric factors: 1D


def _power_transformed(fn, b: float, p: float):
    # maps the u^{1-p}-singular integral over [0, b] to a bounded one on [0, 1]
    q = 2.0 - p

    def wrapped(v):
        v = np.maximum(v, 1e-300)
        u = b * v ** (1.0 / q)
        return fn(u) * (b / q) * v ** (1.0 / q - 1.0)

    return wrapped


@lru_cache(maxsize=4096)
def _factor_1d(d: int, grid_m: int, kind: KernelKind, kernel_n: int, method: str,
               g: int, nsamples: int, seed: int, p: float):
    """Unordered-pair weight for cells at index distance d: the kernel-weighted
    integral of 1/|x-y|^p over the cell pair, both orientations included."""
    kernel = Kernel(kind, kernel_n)
    h = 1.0 / grid_m
    height = kernel.height
    r = kernel.support_radius
    lo = max((d - 1) * h, 0.0)
    hi = min((d + 1) * h, r)
    if hi <= lo:
        return 0.0, 0.0

    def integrand(u):
        uu = np.maximum(u, 1e-300)
        return 2.0 * height * _tent(u, d, h) / uu ** p

    singular = d == 1 and p > 1.0 and lo == 0.0
    if singular and p >= 2.0:
        raise ValueError("the adjacent-pair factor diverges for p >= 2 in 1D")
    if method == GAUSS:
        inner = sorted({x for x in (lo, d * h, hi) if lo <= x <= hi})
        edges = np.asarray(inner)
        if singular:
            # first panel [0, e1] via the power substitution, rest plainly
            first = _power_transformed(integrand, edges[1], p)
            val = _gauss_on_panels(first, np.array([0.0, 1.0]), g)
            val_f = _gauss_on_panels(first, _refine(np.array([0.0, 1.0])), g)
            if edges.size > 2:
                val += _gauss_on_panels(integrand, edges[1:], g)
                val_f += _gauss_on_panels(integrand, _refine(edges[1:]), g)
        else:
            val = _gauss_on_panels(integrand, edges, g)
            val_f = _gauss_on_panels(integrand, _refine(edges), g)
        return val_f, abs(val_f - val)

    rng = _stream(seed, d)
    if singular:
        split = d * h if lo < d * h < hi else hi
        v1, e1 = _stratified_mc(_power_transformed(integrand, split, p),
                                [np.linspace(0.0, 1.0, _STRATA_1D + 1)],
                                nsamples // 2, rng)
        v2, e2 = (0.0, 0.0)
        if split < hi:
            v2, e2 = _stratified_mc(integrand,
                                    [np.linspace(split, hi, _STRATA_1D + 1)],
                                    nsamples // 2, rng)
        return v1 + v2, math.hypot(e1, e2)
    return _stratified_mc(integrand, [np.linspace(lo, hi, _STRATA_1D + 1)],
                          nsamples, rng)


# ---------------------------------------------------------------------------
# geometric factors: 2D


def _kink_angles(knots_x, knots_y, kernel: Kernel) -> np.ndarray:
    """Angles where the radial breakpoint structure of the polar integrand
    changes; used as theta panel boundaries."""
    r = kernel.support_radius
    # the reflections of 0, pi/4 and pi/2 are the multiples of pi/4
    bases = [0.0, 0.25 * math.pi, 0.5 * math.pi]
    for c in [abs(c) for c in knots_x + knots_y if c != 0.0]:
        if c < r:
            bases += [math.acos(c / r), math.asin(min(c / r, 1.0))]
    for cx in [abs(c) for c in knots_x if c != 0.0]:
        for cy in [abs(c) for c in knots_y if c != 0.0]:
            bases.append(math.atan2(cy, cx))
    cands = {2.0 * math.pi}
    for t in bases:
        cands.update(v % (2 * math.pi)
                     for v in (t, math.pi - t, math.pi + t, 2 * math.pi - t))
    return np.array(sorted(cands))


def _polar_factor(dx: int, dy: int, h: float, kernel: Kernel, g: int,
                  theta_split: int, p: float) -> float:
    """Gauss evaluation of the 2D pair factor in polar coordinates.

    The radial integrand is piecewise polynomial for p = 1, so with panel
    boundaries at every tent knot crossing the inner integral is exact and
    the only error source is the angular quadrature (smooth per panel).
    Each theta panel is one array pass over its g angles, 7 radial panels
    and g radial nodes; knot crossings outside (0, cap) move to the cap.
    """
    knots_x = [(dx - 1) * h, dx * h, (dx + 1) * h]
    knots_y = [(dy - 1) * h, dy * h, (dy + 1) * h]
    thetas = _kink_angles(knots_x, knots_y, kernel)
    for _ in range(theta_split):
        thetas = _refine(thetas)
    r = kernel.support_radius
    disc = kernel.kind is KernelKind.DISC2D
    total = 0.0
    for th, wt in zip(*_panel_nodes(thetas, g)):
        c, s = np.cos(th), np.sin(th)
        cap = r / (np.ones(g) if disc else np.maximum(np.abs(c), np.abs(s)))
        # cos and sin vanish at no double but 0, and every node lies inside
        # (0, 2 pi), so every crossing is finite
        rho = np.column_stack([knots_x / c[:, None], knots_y / s[:, None]])
        rho = np.where((rho > 0.0) & (rho < cap[:, None]), rho, cap[:, None])
        edges = np.sort(np.column_stack([np.zeros(g), cap, rho]), axis=1)
        pts, wts = _panel_nodes(edges, g)
        vals = (2.0 * kernel.height * _tent(pts * c[:, None, None], dx, h)
                * _tent(pts * s[:, None, None], dy, h) * pts ** (1.0 - p))
        total += float(wt @ np.sum(wts * vals, axis=(1, 2)))
    return total


@lru_cache(maxsize=4096)
def _factor_2d(dx: int, dy: int, grid_n: int, kind: KernelKind, kernel_n: int,
               method: str, g: int, nsamples: int, seed: int, p: float):
    """Unordered-pair weight for cells at the canonical offset (dx, dy),
    dx >= dy >= 0, both orientations."""
    kernel = Kernel(kind, kernel_n)
    h = 1.0 / grid_n
    r = kernel.support_radius
    if not in_reach(kernel, grid_n, (dx, dy)):
        return 0.0, 0.0
    if p >= 3.0 and dx <= 1 and dy <= 1:
        raise ValueError("the touching-pair factor diverges for p >= 3 in 2D")

    if method == GAUSS:
        val = _polar_factor(dx, dy, h, kernel, g, theta_split=2, p=p)
        val_f = _polar_factor(dx, dy, h, kernel, g, theta_split=3, p=p)
        return val_f, abs(val_f - val)

    # MC over the tent support box clipped to the kernel bounding box
    xlo, xhi = max((dx - 1) * h, -r), min((dx + 1) * h, r)
    ylo, yhi = max((dy - 1) * h, -r), min((dy + 1) * h, r)
    if xhi <= xlo or yhi <= ylo:
        return 0.0, 0.0
    disc = kernel.kind is KernelKind.DISC2D

    def integrand(ux, uy):
        norm = np.maximum(np.sqrt(ux * ux + uy * uy), 1e-300)
        vals = 2.0 * kernel.height * _tent(ux, dx, h) * _tent(uy, dy, h) / norm ** p
        # kernel_eval's rules: the Euclidean norm (disc) or the sup-norm against r
        vals[(norm if disc else np.maximum(np.abs(ux), np.abs(uy))) > r] = 0.0
        return vals

    axes = [np.linspace(xlo, xhi, 5), np.linspace(ylo, yhi, 5)]
    return _stratified_mc(integrand, axes, nsamples, _stream(seed, 1024 * dx + dy))


# ---------------------------------------------------------------------------
# assembled evaluations


def _canonical(offset: tuple) -> tuple:
    # pair factors are invariant under axis reflections and swaps
    return tuple(sorted((abs(o) for o in offset), reverse=True))


def _pair_factor(offset: tuple, grid_n: int, kernel: Kernel, cfg: OracleConfig,
                 nsamples: int):
    """(factor, error) of the cell pairs at a 1D or 2D offset."""
    factor = _factor_1d if len(offset) == 1 else _factor_2d
    seed = cfg.seed
    if cfg.method == GAUSS:
        # Gauss uses neither, so every sample budget shares one cache entry
        nsamples, seed = 0, 0
    return factor(*_canonical(offset), grid_n, kernel.kind, kernel.n, cfg.method,
                  cfg.points_per_cell_axis, nsamples, seed, cfg.p)


def _eval_piecewise_constant(a: np.ndarray, kernel: Kernel,
                             cfg: OracleConfig) -> EvalReport:
    """Sum over the offsets in reach of the coefficient differences
    sum |a_i - a_{i+o}|^p times the pair factor of the offset."""
    n = a.shape[0]
    tasks = []
    for off in offsets_within_reach(kernel, n):
        coeff_sum = Stencil(a.shape, [(off, 1.0)]).value(a, cfg.p)
        if coeff_sum > 0.0:
            tasks.append((_canonical(off), coeff_sum))
    if not tasks:
        return EvalReport(0.0, 0.0, 0.0, cfg)
    # the correlation of two adjacent cells vanishes linearly at the origin,
    # so against the radial measure rho^(dim-1) the integral of rho^(-p)
    # diverges from p = dim + 1 on
    if cfg.p >= kernel.dim + 1 and any(off[0] == 1 for off, _ in tasks):
        raise ValueError("the functional is infinite for a discontinuous "
                         f"piecewise constant when p >= {kernel.dim + 1}")
    canonical = sorted({off for off, _ in tasks})
    per_task = max(1000, cfg.samples // len(canonical))
    factors = {off: _pair_factor(off, n, kernel, cfg, per_task) for off in canonical}
    value = 0.0
    coeff_by_offset = dict.fromkeys(canonical, 0.0)
    for off, coeff_sum in tasks:
        value += coeff_sum * factors[off][0]
        coeff_by_offset[off] += coeff_sum
    var = 0.0
    delta = 0.0
    for off in canonical:
        err = coeff_by_offset[off] * factors[off][1]
        if cfg.method == MONTE_CARLO:
            var += err ** 2
        else:
            delta += err
    return EvalReport(value, math.sqrt(var), delta, cfg)


def oracle_terms(kernel: Kernel, grid_n: int, cfg: OracleConfig) -> list:
    """``(offset, weight)`` terms whose weights are the geometric factors of
    every offset in kernel reach (zero factors left out)."""
    terms = []
    for off in offsets_within_reach(kernel, grid_n):
        fac, _ = _pair_factor(off, grid_n, kernel, cfg, cfg.samples)
        if fac > 0.0:
            terms.append((off, fac))
    return terms


def _curve_breaks(knots: np.ndarray, shift: float, lo: float, hi: float) -> np.ndarray:
    pts = np.concatenate([knots, knots + shift])
    pts = pts[(pts > lo + 1e-15) & (pts < hi - 1e-15)]
    return np.unique(np.concatenate([[lo], np.sort(pts), [hi]]))


def _x_integral(func, u: float, knots: np.ndarray, p: float, g: int,
                split_roots: bool) -> float:
    """Integral over x in (u, 1) of |f(x) - f(x-u)|^p, with x panels at every
    knot of f and of its shift; panels are split at sign changes of the
    difference (exact for piecewise-linear f)."""
    edges = _curve_breaks(knots, u, u, 1.0)
    if split_roots:
        diff = func(edges) - func(edges - u)
        da, db = diff[:-1], diff[1:]
        flip = ((da > 0) != (db > 0)) & (da != db)
        xa, xb, da, db = edges[:-1][flip], edges[1:][flip], da[flip], db[flip]
        roots = xa + (xb - xa) * da / (da - db)
        edges = np.sort(np.concatenate([edges, roots[(xa < roots) & (roots < xb)]]))

    def integrand(x):
        return np.abs(func(x) - func(x - u)) ** p

    return _gauss_on_panels(integrand, edges, g)


def _curve_gauss_1d(func, knots: np.ndarray, kernel: Kernel, cfg: OracleConfig,
                    split_roots: bool) -> EvalReport:
    r = kernel.support_radius
    height = kernel.height
    g = cfg.points_per_cell_axis

    def band_value(delta: float) -> float:
        us, ws = _panel_nodes(_refine(_refine(_curve_breaks(knots, 0.0, delta, r))), g)
        total = 0.0
        for u, w in zip(us.ravel(), ws.ravel()):
            total += w * _x_integral(func, float(u), knots, cfg.p, g,
                                     split_roots) / float(u) ** cfg.p
        return 2.0 * height * total

    delta = cfg.exclusion_band
    near = band_value(delta)
    far = band_value(2.0 * delta)
    value = 2.0 * near - far
    return EvalReport(max(value, 0.0), 0.0, abs(near - far), cfg)


def _curve_mc_1d(func, kernel: Kernel, cfg: OracleConfig) -> EvalReport:
    r = kernel.support_radius
    height = kernel.height

    def integrand(u, x):
        y = x - u
        ok = (y > 0.0) & (y < 1.0) & (u != 0.0)
        uu = np.where(ok, np.abs(u), 1.0)
        return np.where(ok, height * np.abs(func(x) - func(np.clip(y, 0.0, 1.0)))
                        ** cfg.p / uu ** cfg.p, 0.0)

    axes = [np.linspace(-r, r, _STRATA_1D + 1), (0, 1)]
    # at least 1,000 samples in each of the u strata
    value, stderr = _stratified_mc(integrand, axes, max(_STRATA_1D * 1000, cfg.samples),
                                   _stream(cfg.seed, 0))
    return EvalReport(value, stderr, 0.0, cfg)


def _kernel_values_2d(kernel: Kernel, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``kernel_eval`` at the points (u1, u2), with its comparisons: the
    Euclidean norm against r for ``disc`` and the sup-norm for ``square``."""
    r = kernel.support_radius
    if kernel.kind is KernelKind.SQUARE2D:
        inside = np.maximum(np.abs(u1), np.abs(u2)) <= r
    else:
        inside = np.sqrt(u1 * u1 + u2 * u2) <= r
    return np.where(inside, kernel.height, 0.0)


def _callable_mc_2d(func, kernel: Kernel, cfg: OracleConfig) -> EvalReport:
    r = kernel.support_radius

    def integrand(x1, x2, u1, u2):
        y1, y2 = x1 - u1, x2 - u2
        ok = (y1 > 0) & (y1 < 1) & (y2 > 0) & (y2 < 1)
        norm = np.sqrt(u1 * u1 + u2 * u2)
        ok &= norm > 0
        phi = _kernel_values_2d(kernel, u1, u2)
        fx = func(x1, x2)
        fy = func(np.clip(y1, 0, 1), np.clip(y2, 0, 1))
        safe = np.where(ok, norm, 1.0)
        return np.where(ok, phi * np.abs(fx - fy) ** cfg.p / safe ** cfg.p, 0.0)

    value, stderr = _stratified_mc(integrand, [(0, 1), (0, 1), (-r, r), (-r, r)],
                                   cfg.samples, _stream(cfg.seed, 0))
    return EvalReport(value, stderr, 0.0, cfg)


def geometric_factor_1d(d: int, grid_m: int, kernel: Kernel, cfg: OracleConfig,
                        samples: int | None = None):
    """Kernel-weighted integral of 1/|x-y|^p over a 1D cell pair at index
    distance ``d`` (both orientations). Returns (value, error estimate)."""
    if d < 1 or grid_m < 1:
        raise ValueError("need d >= 1 and grid_m >= 1")
    return _pair_factor((d,), grid_m, kernel, cfg,
                        samples if samples is not None else cfg.samples)


def geometric_factor_2d(offset, grid_n: int, kernel: Kernel, cfg: OracleConfig,
                        samples: int | None = None):
    """Kernel-weighted integral of 1/|x-y|^p over a 2D cell pair at the given
    offset (both orientations). Returns (value, error estimate)."""
    dx, dy = offset
    if (dx, dy) == (0, 0) or grid_n < 1:
        raise ValueError("offset must be nonzero and grid_n >= 1")
    return _pair_factor((dx, dy), grid_n, kernel, cfg,
                        samples if samples is not None else cfg.samples)


def oracle_eval(f, kernel: Kernel, cfg: OracleConfig) -> EvalReport:
    """Estimate the nonlocal functional of ``f`` directly from its defining
    double integral.

    ``f`` may be a :class:`PiecewiseConstant1D`, :class:`Spline1D`,
    :class:`Image2D`, or a vectorized callable on Omega (one positional array
    argument in 1D, two in 2D). The kernel dimension must match the input.
    """
    if isinstance(f, PiecewiseConstant1D):
        if kernel.dim != 1:
            raise ValueError("1D input needs a 1D kernel")
        return _eval_piecewise_constant(f.coeffs, kernel, cfg)
    if isinstance(f, Image2D):
        if kernel.dim != 2:
            raise ValueError("2D input needs a 2D kernel")
        return _eval_piecewise_constant(f.coeffs, kernel, cfg)
    if isinstance(f, Spline1D):
        if kernel.dim != 1:
            raise ValueError("1D input needs a 1D kernel")
        knots = np.linspace(0.0, 1.0, f.n + 1)
        if cfg.method == GAUSS:
            return _curve_gauss_1d(f, knots, kernel, cfg,
                                   split_roots=cfg.p in (1.0, 2.0))
        return _curve_mc_1d(f, kernel, cfg)
    if callable(f):
        if kernel.dim == 1:
            if cfg.method == GAUSS:
                knots = np.linspace(0.0, 1.0, 33)
                return _curve_gauss_1d(f, knots, kernel, cfg, split_roots=False)
            return _curve_mc_1d(f, kernel, cfg)
        if cfg.method == GAUSS:
            raise ValueError("Gauss quadrature for 2D inputs is only available "
                             "for piecewise-constant images; use Monte Carlo")
        return _callable_mc_2d(f, kernel, cfg)
    raise TypeError(f"unsupported input type {type(f).__name__}")


def fit_stencil(kind: KernelKind, n: int, cfg: OracleConfig) -> StencilWeights:
    """Recover the lateral/diagonal pair weights empirically from oracle
    evaluations of two basis images.

    The checkerboard image has equal diagonal neighbours everywhere, so its
    value isolates the lateral weight; a half-plane edge image then yields
    the diagonal weight from a single linear equation.
    """
    if not 2 <= n <= 8:
        raise ValueError("stencil fitting supports n in [2, 8]")
    if kind not in (KernelKind.DISC2D, KernelKind.SQUARE2D):
        raise ValueError("stencil fitting requires a 2D kernel")
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    checker = Image2D(((ii + jj) % 2).astype(float))
    edge = Image2D((ii >= n // 2).astype(float))
    kernel = Kernel(kind, n)
    r_checker = oracle_eval(checker, kernel, cfg).value
    r_edge = oracle_eval(edge, kernel, replace(cfg, seed=cfg.seed + 1)).value
    lateral = r_checker / (2.0 * n * (n - 1))
    diagonal = (r_edge - n * lateral) / (2.0 * (n - 1))
    return StencilWeights(lateral=lateral, diagonal=diagonal, kernel_kind=kind, n=n)
