"""Independent numerical evaluation of the nonlocal functional.

Evaluates the double integral

    R(f) = integral over Omega x Omega of |f(x)-f(y)|^p / |x-y|^p phi(x-y)

directly from its definition, without reusing any of the closed-form schemes.
Two methods are available:

* ``gauss``: composite Gauss-Legendre quadrature through one panel rule,
  ``_panel_nodes``, applied to whole arrays of panels. For piecewise-constant
  inputs the integral reduces exactly (Fubini) to per-cell-pair geometric
  factors, in 2D in polar coordinates with one array pass per block of
  angular panels; for splines and callbacks the offset u = |x - y| runs from
  0, and its first panel goes through a power substitution when 1 < p < 2.
* ``mc``: a randomly shifted rank-1 lattice rule through one sampler,
  ``_lattice_mc``. A task sums one lattice of N points, N a power of two with
  16 N at most its budget, over 16 random shifts drawn from one PCG64DXSM
  stream seeded from (seed, task id); the spread of the 16 shift means gives
  the standard error. Each shift is summed by one thread in chunks of at
  most ``stencil.CHUNK`` points, so shifts of ``_THREAD_POINTS`` points or
  more run on up to one thread per available CPU and the results are the
  same bit for bit whatever the thread count. An integrand gets one chunk
  per call and must act element-wise, and each thread holds arrays of that
  size only: points made once per thread, scratch by ``stencil.per_thread``.
  ``_curve_mc`` samples 1D and 2D curves over the offset u and the point x.

Geometric factors depend only on the relative cell offset. Both dimensions
share one cached pair factor, ``_factor``, keyed by the canonical offset
``(d,)`` or ``(dx, dy)``; its Monte Carlo stream is that of (seed, d) in 1D
and of (seed, 1024 dx + dy) in 2D, the streams of every pinned estimate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import stencil
from .kernels import Kernel, KernelKind, in_reach, offsets_within_reach
from .schemes_1d import PiecewiseConstant1D, Spline1D
from .schemes_2d import Image2D, StencilWeights

GAUSS = "gauss"
MONTE_CARLO = "mc"
METHODS = (MONTE_CARLO, GAUSS)

_MIN_MC_SAMPLES = 10_000
# random shifts of the lattice rule, whose spread gives the standard error
_SHIFTS = 16
# points per shift from which the shifts are spread over threads: on a 2-CPU
# host two threads took 0.72-1.82 times as long as one at 8,192 points and
# 0.75-1.22 times at 16,384, but 0.55-1.02 times at 32,768, over the 1D and 2D
# pair factors, the spline curve and a 2D callable
_THREAD_POINTS = 1 << 15
# lattice coordinates and shifts are integers in units of 2^-53: the shifted
# point is then exact, and so is its float
_UNIT = 1 << 53


@dataclass(frozen=True)
class OracleConfig:
    """Evaluation policy for the oracle.

    ``samples`` is the Monte Carlo budget of one ``oracle_eval`` or
    ``oracle_terms`` call: all of it for a curve, an even share for each
    distinct canonical pair offset, at least 1,000, so past ``samples`` /
    1,000 offsets the points used can pass it. A task uses between half and
    all of its share (16 shifts of a power-of-two lattice), and
    ``points_per_cell_axis`` is the Gauss-Legendre order of every panel.
    """

    method: str = MONTE_CARLO
    samples: int = 100_000
    points_per_cell_axis: int = 8
    seed: int = 0
    p: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be '{GAUSS}' or '{MONTE_CARLO}'")
        if self.method == MONTE_CARLO and self.samples < _MIN_MC_SAMPLES:
            raise ValueError(f"Monte Carlo needs at least {_MIN_MC_SAMPLES} samples")
        if not 2 <= self.points_per_cell_axis <= 64:
            raise ValueError("points_per_cell_axis must lie in [2, 64]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a non-negative integer below 2**64")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p}")


@dataclass(frozen=True)
class EvalReport:
    """Oracle estimate with its error channel.

    ``stderr_estimate`` is the Monte Carlo standard error (zero for Gauss);
    ``richardson_delta`` is the Gauss refinement difference (zero for MC).
    """

    value: float
    stderr_estimate: float
    richardson_delta: float

    def __post_init__(self):
        if not (0.0 <= self.value < math.inf and math.isfinite(self.stderr_estimate)
                and math.isfinite(self.richardson_delta)):
            raise ValueError("malformed report: the value must be finite and "
                             "non-negative, and both error channels finite")


def _stream(seed: int, task: int) -> np.random.Generator:
    """The stream of (seed, task): a PCG64DXSM generator seeded from
    ``SeedSequence([seed, task])``."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([seed, task])))


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


def _lattice_mc(fn, box, nsamples: int, rng: np.random.Generator):
    """Randomly shifted rank-1 lattice rule (Cranley and Patterson) for a
    vectorized integrand of len(box) variables over the box ``box``, one
    (lo, hi) per axis.

    The lattice has N points, N the largest power of two with
    ``_SHIFTS`` N <= ``nsamples`` (at least 1), and the golden Korobov
    generating vector z_j = a^j mod N, a the odd integer nearest N / phi: in
    1D the shifted midpoint rule, in 2D a Fibonacci-like lattice. Each of
    the ``_SHIFTS`` shifts takes one vector of uniform shifts D from ``rng``,
    53-bit integers in units of 2^-53, and point k on axis j is
    lo + frac((k z_j mod N) / N + D_j) (hi - lo), the fraction exact. The
    estimate is the volume times the mean over shifts of the shift's mean
    value, and its standard error that of the shift means.

    Each shift is summed by one thread, in chunks of at most ``stencil.CHUNK``
    points in order; ``fn`` is called once per chunk on one array per axis,
    reused by its thread for every chunk, and it may overwrite them. Shifts
    of at least ``_THREAD_POINTS`` points run on up to one thread per
    available CPU, so ``fn`` may be called from several threads at once;
    smaller ones run on one. The shift sums are combined in shift order, so
    the thread count does not change the result. Returns the estimate and
    its standard error.
    """
    n = 1 << max(0, (nsamples // _SHIFTS).bit_length() - 1)
    a = 2 * round((n * (math.sqrt(5.0) - 1.0) / 2.0 - 1.0) / 2.0) + 1  # nearest N / phi
    # z_j scaled to units of 2^-53; N divides 2^53, and int64 products wrap
    # modulo 2^64, which keeps every bit below 2^53
    gens = [pow(a, j, n) * (_UNIT // n) for j in range(len(box))]
    shifts = rng.integers(_UNIT, size=(_SHIFTS, len(box))).tolist()
    size = min(n, stencil.CHUNK)
    steps = np.arange(size, dtype=np.int64)
    work = stencil.per_thread(np.int64, *[float] * len(box))

    def shift_sum(shift):
        frac, *xs = work(size)
        total = 0.0
        for k0 in range(0, n, size):
            for x, z, d, (lo, hi) in zip(xs, gens, shift, box):
                np.multiply(steps, z, out=frac)
                frac += (k0 * z + d) % _UNIT
                frac &= _UNIT - 1
                np.multiply(frac, (hi - lo) / _UNIT, out=x)
                x += lo
            total += float(fn(*xs).sum())
        return total

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if n < _THREAD_POINTS or cpus == 1:
        sums = [shift_sum(shift) for shift in shifts]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(cpus, _SHIFTS)) as pool:
            sums = list(pool.map(shift_sum, shifts))  # re-raises a shift's error
    means = np.array(sums) / n
    vol = float(math.prod(hi - lo for lo, hi in box))
    return vol * float(means.mean()), vol * float(means.std(ddof=1)) / math.sqrt(_SHIFTS)


def _tent(t: np.ndarray, d: int, h: float) -> np.ndarray:
    """Correlation length of two cells of width h at index distance d,
    computed in place: overwrites and returns the float array ``t``."""
    t -= d * h
    np.abs(t, out=t)
    np.subtract(h, t, out=t)
    return np.maximum(t, 0.0, out=t)


def _norm_outside(kernel: Kernel):
    """A function of the offsets ``u`` (one array per axis) that returns
    their Euclidean norm and where ``kernel_eval`` vanishes at them
    (``Kernel.outside``), in ``per_thread`` arrays; the mask is None in 1D,
    where every sampled offset lies in the support. It leaves ``u`` as it
    is."""
    work = stencil.per_thread(*(float,) if kernel.dim == 1 else (float, float, bool, bool))

    def norm_outside(u):
        arrays = work(u[0].size)
        if kernel.dim == 1:
            return np.abs(u[0], out=arrays[0]), None
        # in place, the arithmetic of Kernel.norm
        norm, spare, outside, spare_mask = arrays
        np.multiply(u[0], u[0], out=norm)
        norm += np.multiply(u[1], u[1], out=spare)
        np.sqrt(norm, out=norm)
        return norm, kernel.outside(u, norm, outside, spare_mask)

    return norm_outside


# ---------------------------------------------------------------------------
# geometric factors


def _singular_split(fn, edges: np.ndarray, p: float) -> list:
    """(integrand, panel edges) pieces of the integral of ``fn`` over the
    panels ``edges`` from 0, where fn may grow like u^(1-p): for 1 < p < 2
    the first panel [0, b] goes through u = b v^(1/(2-p)), which maps it to
    a bounded integrand on [0, 1], and the rest stay plain (no panel when b
    is the end). The mapped integrand overwrites v and returns the values in
    it, and fn may overwrite u."""
    if not 1.0 < p < 2.0:
        return [(fn, edges)]
    b, q = edges[1], 2.0 - p
    work = stencil.per_thread(float)

    def wrapped(v):
        np.maximum(v, 1e-300, out=v)
        (u,) = work(v.size)
        # the in-place power takes numpy's path of v ** (1 / q), bit for bit
        np.copyto(u, v)
        u **= 1.0 / q
        u *= b
        vals = fn(u)
        vals *= b / q
        v **= 1.0 / q - 1.0
        v *= vals
        return v

    return [(wrapped, np.array([0.0, 1.0])), (fn, edges[1:])]


def _kink_angles(knots_x, knots_y, kernel: Kernel) -> np.ndarray:
    """Angles where the radial breakpoint structure of the polar integrand
    changes (the knot lines' crossings with the support's boundary and with
    each other); used as theta panel boundaries."""
    # the reflections of 0, pi/4 and pi/2 are the multiples of pi/4
    bases = [0.0, 0.25 * math.pi, 0.5 * math.pi]
    for c in [abs(c) for c in knots_x + knots_y if c != 0.0]:
        bases += kernel.crossing_angles(c)
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
    Whole theta panels go in blocks of at most ``stencil.CHUNK`` radial nodes
    (7 radial panels of g nodes for each of its g angles a panel): one array
    pass over every angle of a block, with knot crossings outside (0, cap)
    moved to the cap, gives each angle's radial integral. Each panel then
    adds ``wt @ radial`` to the total in panel order, so blocks change no bit.
    """
    knots_x = [(dx - 1) * h, dx * h, (dx + 1) * h]
    knots_y = [(dy - 1) * h, dy * h, (dy + 1) * h]
    thetas = _kink_angles(knots_x, knots_y, kernel)
    for _ in range(theta_split):
        thetas = _refine(thetas)
    th_panels, wt_panels = _panel_nodes(thetas, g)
    block = max(1, stencil.CHUNK // (7 * g * g))
    total = 0.0
    for first in range(0, len(th_panels), block):
        th = th_panels[first:first + block].ravel()
        c, s = np.cos(th), np.sin(th)
        cap = kernel.cap(c, s)
        # cos and sin vanish at no double but 0, and every node lies inside
        # (0, 2 pi), so every crossing is finite
        rho = np.column_stack([knots_x / c[:, None], knots_y / s[:, None]])
        rho = np.where((rho > 0.0) & (rho < cap[:, None]), rho, cap[:, None])
        edges = np.sort(np.column_stack([np.zeros(th.size), cap, rho]), axis=1)
        pts, wts = _panel_nodes(edges, g)
        vals = (2.0 * kernel.height * _tent(pts * c[:, None, None], dx, h)
                * _tent(pts * s[:, None, None], dy, h) * pts ** (1.0 - p))
        radial = np.sum(wts * vals, axis=(1, 2)).reshape(-1, g)
        for wt, rad in zip(wt_panels[first:first + block], radial):
            total += float(wt @ rad)
    return total


@lru_cache(maxsize=4096)
def _factor(offset: tuple, grid_n: int, kind: KernelKind, kernel_n: int, method: str,
            g: int, nsamples: int, seed: int, p: float):
    """Unordered-pair weight for cells at the canonical offset ``(d,)`` or
    ``(dx, dy)``, dx >= dy >= 0: the kernel-weighted integral of 1/|x-y|^p
    over the cell pair, both orientations included.

    Both dimensions share this one cached routine and one MC integrand over
    the tent support box clipped to the kernel bounding box. Its stream is
    that of (seed, d) in 1D and of (seed, 1024 dx + dy) in 2D, the streams
    that every pinned factor was recorded with.
    """
    kernel = Kernel(kind, kernel_n)
    dim = len(offset)
    h = 1.0 / grid_n
    r = kernel.support_radius
    if not in_reach(kernel, grid_n, offset):
        return 0.0, 0.0
    # the correlation of two touching cells vanishes linearly at the origin,
    # so against the radial measure rho^(dim-1) the integral of rho^(-p)
    # diverges from p = dim + 1 on; the 2D (1, 0) integrand grows like
    # |u|^(1-p) there, so its variance is infinite from p = 2 on
    touching = max(offset) <= 1
    if touching and p >= dim + 1:
        raise ValueError(f"the touching-pair factor diverges for p >= {dim + 1} "
                         f"in {dim}D")
    if method == MONTE_CARLO and offset == (1, 0) and p >= 2:
        raise ValueError("Monte Carlo has infinite variance on the (1, 0) pair for p >= 2")

    norm_outside = _norm_outside(kernel)

    def integrand(*u):
        # overwrites every array of u
        norm, outside = norm_outside(u)
        np.maximum(norm, 1e-300, out=norm)
        norm **= p
        vals = _tent(u[0], offset[0], h)
        vals *= 2.0 * kernel.height
        for ua, o in zip(u[1:], offset[1:]):
            vals *= _tent(ua, o, h)
        vals /= norm
        if outside is not None:
            # the values are finite and non-negative, so a product with the
            # 0/1 inside mask, in the norm's array, zeroes the outside ones
            # bit for bit and several times faster than assigning zero
            vals *= np.logical_not(outside, out=norm)
        return vals

    key = (seed, offset[0] if dim == 1 else 1024 * offset[0] + offset[1])
    bounds = [(max((o - 1) * h, -r), min((o + 1) * h, r)) for o in offset]
    if dim == 2:
        if method == GAUSS:
            val, val_f = (_polar_factor(*offset, h, kernel, g, split, p) for split in (2, 3))
            return val_f, abs(val_f - val)
        return _lattice_mc(integrand, bounds, nsamples, _stream(*key))
    lo, hi = bounds[0]
    edges = np.array(sorted({x for x in (lo, offset[0] * h, hi) if lo <= x <= hi}))
    # a touching pair's integrand grows like u^(1-p) at the origin
    pieces = _singular_split(integrand, edges, p) if touching else [(integrand, edges)]
    if method == GAUSS:
        val = sum(_gauss_on_panels(fn, e, g) for fn, e in pieces)
        val_f = sum(_gauss_on_panels(fn, _refine(e), g) for fn, e in pieces)
        return val_f, abs(val_f - val)
    # each piece takes an equal share, and the second draws its shifts after
    # the first's from one stream; the plain piece is empty when e1 is the end
    rng = _stream(*key)
    parts = [_lattice_mc(fn, [(e[0], e[-1])], nsamples // len(pieces), rng)
             for fn, e in pieces if e.size > 1]
    return sum(val for val, _ in parts), math.hypot(*(err for _, err in parts))


# ---------------------------------------------------------------------------
# assembled evaluations


def _canonical(offset: tuple) -> tuple:
    # pair factors are invariant under axis reflections and swaps
    return tuple(sorted((abs(o) for o in offset), reverse=True))


def _factors(offsets, grid_n: int, kernel: Kernel, cfg: OracleConfig) -> dict:
    """{canonical offset: (factor, error)} of the cell pairs at the 1D or 2D
    ``offsets``. Monte Carlo gives each canonical offset an even share of
    ``cfg.samples``, at least 1,000; Gauss reads neither budget nor seed."""
    canonical = sorted({_canonical(off) for off in offsets})
    if any(len(off) != kernel.dim for off in canonical):
        raise ValueError(f"the {kernel.kind.value} kernel needs {kernel.dim}D offsets")
    nsamples, seed = max(1000, cfg.samples // max(1, len(canonical))), cfg.seed
    if cfg.method == GAUSS:
        nsamples, seed = 0, 0  # so that every budget shares one cache entry
    return {off: _factor(off, grid_n, kernel.kind, kernel.n, cfg.method,
                         cfg.points_per_cell_axis, nsamples, seed, cfg.p)
            for off in canonical}


def _eval_piecewise_constant(a: np.ndarray, kernel: Kernel,
                             cfg: OracleConfig) -> EvalReport:
    """Sum over the offsets in reach of the coefficient differences
    sum |a_i - a_{i+o}|^p times the pair factor of the offset."""
    tasks = []
    for off in offsets_within_reach(kernel, a.shape[0]):
        coeff_sum = stencil.Stencil(a.shape, [(off, 1.0)]).value(a, cfg.p)
        if coeff_sum > 0.0:
            tasks.append((_canonical(off), coeff_sum))
    factors = _factors([off for off, _ in tasks], a.shape[0], kernel, cfg)
    value = spread = 0.0
    coeff_by_offset = dict.fromkeys(factors, 0.0)
    for off, coeff_sum in tasks:
        value += coeff_sum * factors[off][0]
        coeff_by_offset[off] += coeff_sum
    # the MC variance or the Gauss refinement difference, in offset order
    mc = cfg.method == MONTE_CARLO
    for off, (_, err) in factors.items():
        err *= coeff_by_offset[off]
        spread += err ** 2 if mc else err
    return EvalReport(value, math.sqrt(spread) if mc else 0.0, 0.0 if mc else spread)


def oracle_terms(kernel: Kernel, grid_n: int, cfg: OracleConfig) -> list:
    """``(offset, weight)`` terms whose weights are the geometric factors of
    every offset in kernel reach (zero factors left out). Monte Carlo splits
    ``cfg.samples`` over the distinct canonical offsets as ``oracle_eval``
    does, at least 1,000 each."""
    offsets = offsets_within_reach(kernel, grid_n)
    factors = _factors(offsets, grid_n, kernel, cfg)
    return [(off, fac) for off in offsets if (fac := factors[_canonical(off)][0]) > 0.0]


def _curve_breaks(knots: np.ndarray, shift: float, lo: float, hi: float) -> np.ndarray:
    pts = np.concatenate([knots, knots + shift])
    pts = pts[(pts > lo + 1e-15) & (pts < hi - 1e-15)]
    return np.unique(np.concatenate([[lo], np.sort(pts), [hi]]))


def _x_integral(func, u: float, knots: np.ndarray, p: float, g: int,
                split_roots: bool, halve: bool) -> float:
    """Integral over x in (u, 1) of |f(x) - f(x-u)|^p, with x panels at every
    knot of f and of its shift; panels are split at sign changes of the
    difference (exact for piecewise-linear f), and then halved if ``halve``."""
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

    return _gauss_on_panels(integrand, _refine(edges) if halve else edges, g)


def _curve_gauss_1d(func, knots: np.ndarray, kernel: Kernel, cfg: OracleConfig,
                    split_roots: bool) -> EvalReport:
    """Gauss rule over the offset u in (0, min(r, 1)) of 2 height F(u) / u^p,
    F the x integral: the value refines the u panels twice and halves the x
    panels, and ``richardson_delta`` is its distance to the rule that
    refines the u panels once and leaves the x panels as they are."""
    g, p = cfg.points_per_cell_axis, cfg.p
    edges = _curve_breaks(knots, 0.0, 0.0, min(kernel.support_radius, 1.0))

    def value(u_edges: np.ndarray, halve_x: bool) -> float:
        def integrand(us):
            return np.array([_x_integral(func, u, knots, p, g, split_roots, halve_x) / u ** p
                             for u in us.tolist()])

        pieces = _singular_split(integrand, u_edges, p)
        return 2.0 * kernel.height * sum(_gauss_on_panels(fn, e, g) for fn, e in pieces)

    fine = value(_refine(_refine(edges)), True)
    return EvalReport(fine, 0.0, abs(fine - value(_refine(edges), False)))


def _curve_mc(func, kernel: Kernel, cfg: OracleConfig) -> EvalReport:
    """MC of a 1D or 2D curve over the offset u = x - y and the point x."""
    dim = kernel.dim
    r = kernel.support_radius
    # a spline writes its values over its points
    evaluate = (lambda t: func(t, out=t)) if isinstance(func, Spline1D) else func

    norm_outside = _norm_outside(kernel)
    masks = stencil.per_thread(bool, bool)

    def integrand(*arrays):
        # overwrites every array; y lands in u and the values in the last x
        u, x = arrays[:dim], arrays[dim:]
        norm, outside = norm_outside(u)
        ok, tmp = masks(norm.size)
        np.not_equal(norm, 0.0, out=ok)
        if outside is not None:
            ok &= np.logical_not(outside, out=outside)
        for xi, y in zip(x, u):
            np.subtract(xi, y, out=y)
            ok &= np.greater(y, 0.0, out=tmp)
            ok &= np.less(y, 1.0, out=tmp)
            np.clip(y, 0.0, 1.0, out=y)
        vals = np.subtract(evaluate(*x), evaluate(*u), out=x[-1])
        np.abs(vals, out=vals)
        vals **= cfg.p
        vals *= kernel.height
        off = np.logical_not(ok, out=tmp)
        norm[off] = 1.0
        norm **= cfg.p
        vals /= norm
        vals[off] = 0.0
        return vals

    box = [(-r, r)] * dim + [(0.0, 1.0)] * dim
    value, stderr = _lattice_mc(integrand, box, cfg.samples, _stream(cfg.seed, 0))
    return EvalReport(value, stderr, 0.0)


def geometric_factor_2d(offset, grid_n: int, kernel: Kernel, cfg: OracleConfig):
    """Kernel-weighted integral of 1/|x-y|^p over a 2D cell pair at the given
    offset (both orientations). Returns (value, error estimate)."""
    dx, dy = offset
    if (dx, dy) == (0, 0) or grid_n < 1:
        raise ValueError("offset must be nonzero and grid_n >= 1")
    return _factors([(dx, dy)], grid_n, kernel, cfg)[_canonical((dx, dy))]


def oracle_eval(f, kernel: Kernel, cfg: OracleConfig) -> EvalReport:
    """Estimate the nonlocal functional of ``f`` directly from its defining
    double integral.

    ``f`` may be a :class:`PiecewiseConstant1D`, :class:`Spline1D`,
    :class:`Image2D`, or a vectorized callable on Omega (one positional array
    argument in 1D, two in 2D). The kernel dimension must match the input.

    With ``method="mc"`` the shifts of large budgets run on up to one thread
    per available CPU, and the report does not depend on the thread count.
    A callable ``f`` gets one chunk of at most ``stencil.CHUNK`` points per
    call, maybe on several threads at once: it must act element-wise and
    keep none of its arrays.
    """
    if isinstance(f, (PiecewiseConstant1D, Image2D)):
        dim = f.coeffs.ndim
        if kernel.dim != dim:
            raise ValueError(f"{dim}D input needs a {dim}D kernel")
        return _eval_piecewise_constant(f.coeffs, kernel, cfg)
    if not callable(f):
        raise TypeError(f"unsupported input type {type(f).__name__}")
    spline = isinstance(f, Spline1D)
    if spline and kernel.dim != 1:
        raise ValueError("1D input needs a 1D kernel")
    if cfg.method == MONTE_CARLO:
        return _curve_mc(f, kernel, cfg)
    if kernel.dim == 2:
        raise ValueError("Gauss quadrature for 2D inputs is only available "
                         "for piecewise-constant images; use Monte Carlo")
    knots = np.linspace(0.0, 1.0, (f.n if spline else 32) + 1)
    return _curve_gauss_1d(f, knots, kernel, cfg,
                           split_roots=spline and cfg.p in (1.0, 2.0))


def fit_stencil(kind: KernelKind, n: int, cfg: OracleConfig) -> StencilWeights:
    """Recover the lateral/diagonal pair weights empirically from oracle
    evaluations of two basis images.

    The checkerboard image has equal diagonal neighbours everywhere, so its
    value isolates the lateral weight; a half-plane edge image then yields
    the diagonal weight from a single linear equation.
    """
    if not 2 <= n <= 8:
        raise ValueError("stencil fitting supports n in [2, 8]")
    kernel = Kernel(kind, n)
    if kernel.dim != 2:
        raise ValueError("stencil fitting requires a 2D kernel")
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    checker = Image2D(((ii + jj) % 2).astype(float))
    edge = Image2D((ii >= n // 2).astype(float))
    r_checker = oracle_eval(checker, kernel, cfg).value
    r_edge = oracle_eval(edge, kernel, replace(cfg, seed=cfg.seed + 1)).value
    lateral = r_checker / (2.0 * n * (n - 1))
    diagonal = (r_edge - n * lateral) / (2.0 * (n - 1))
    return StencilWeights(lateral=lateral, diagonal=diagonal)
