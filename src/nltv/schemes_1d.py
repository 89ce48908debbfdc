"""Closed-form evaluation of the nonlocal TV functional for 1D finite elements.

Three element families on the unit interval, each with its matched kernel:

* piecewise constants + ``box``  -> the classical discrete TV seminorm,
* piecewise constants + ``box2`` -> a second-difference corrected TV,
* linear splines + ``box``       -> half-TV plus a three-point edge term,
* Haar step functions + ``box``  -> an explicit branch table in the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import stencil

_LN2 = math.log(2.0)

# the (offset, weight) terms, R(f) = sum w |a_i - a_{i+o}|, of box and box2
BOX_TERMS = (((1,), 1.0),)
BOX2_TERMS = (((1,), _LN2), ((2,), 0.5 * (1.0 - _LN2)))

# Spline1D evaluation: inputs up to this size go straight to np.interp (its
# binary search is faster there), larger ones are split into blocks of
# stencil.CHUNK points. The bin margin is safe while n * 3 * 2**-53 stays
# well below it, which _INTERP_MAX_BINS guarantees with a factor of three.
_INTERP_DIRECT_MAX = 1024
_INTERP_MAX_BINS = 1 << 20
_BIN_MARGIN = 1e-9


# the block loop's scratch, kept per thread between calls
_lookup_work = stencil.per_thread(float, float, np.intp, bool, bool)


def _as_finite_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class PiecewiseConstant1D:
    """Cell values a_1..a_n on the uniform n-cell grid of (0, 1)."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_finite_vector(self.coeffs, "coeffs")
        if arr.size < 1:
            raise ValueError("need at least one cell")
        object.__setattr__(self, "coeffs", arr)

    @property
    def n(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class Spline1D:
    """Node values a_0..a_n of the linear spline interpolating (k/n, a_k)."""

    nodes: np.ndarray
    # the uniform grid k/n and the slope of every interval, set once
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _as_finite_vector(self.nodes, "nodes")
        if arr.size < 2:
            raise ValueError("need at least two nodes")
        # a private read-only copy, so the cached slopes cannot go stale
        arr = arr.copy()
        grid = np.linspace(0.0, 1.0, arr.size)
        # nodes whose difference overflows get an infinite slope, quietly:
        # eval_spline refuses them with a ValueError
        with np.errstate(over="ignore"):
            slopes = np.diff(arr) / np.diff(grid)
        for name, value in (("nodes", arr), ("_grid", grid), ("_slopes", slopes)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    def __call__(self, x, out=None) -> np.ndarray:
        """Evaluate the interpolant at points of [0, 1]; points outside it are
        clamped to the end node values.

        The result equals ``np.interp(x, linspace(0, 1, n + 1), nodes)`` bit
        for bit. Large inputs find their interval by one multiplication on
        the uniform grid instead of a binary search, and evaluate the same
        expression ``slope[j] * (x - grid[j]) + node[j]`` with the same
        slopes. A point whose ``x * n`` lies within ``_BIN_MARGIN`` of an
        integer (grid nodes, 0, 1 and everything outside [0, 1]) goes to
        ``np.interp`` itself; for every other point the rounding errors of
        ``x * n`` and of the grid are far below the margin, so its interval
        is the one the binary search finds.

        ``out``, if given, is a C-contiguous float array of the shape of
        ``x`` that receives the values and is returned; it may be ``x``.
        """
        x = np.asarray(x, dtype=float)
        if out is not None and (out.shape != x.shape or out.dtype != float
                                or not out.flags.c_contiguous):
            raise ValueError("out must be a C-contiguous float array shaped like x")
        n = self.n
        grid, nodes, slopes = self._grid, self.nodes, self._slopes
        if x.size <= _INTERP_DIRECT_MAX or n > _INTERP_MAX_BINS:
            if out is None:
                return np.interp(x, grid, nodes)
            out[...] = np.interp(x, grid, nodes)
            return out
        flat = x.reshape(-1)
        if out is None:
            out = np.empty(x.shape)
        flat_out = out.reshape(-1)
        # far-out points overflow or meet inf; they all take the slow path
        with np.errstate(all="ignore"):
            for lo in range(0, flat.size, stencil.CHUNK):
                xb = flat[lo:lo + stencil.CHUNK]
                ob = flat_out[lo:lo + stencil.CHUNK]
                wb, fb, jb, sb, eb = _lookup_work(xb.size)
                # fmax/fmin also map nan to a valid bin, whose integer value
                # fb keeps as a float: subtracting jb itself would cast it
                # through a buffer
                np.fmin(np.fmax(np.multiply(xb, n, out=fb), 0.0, out=fb), n - 1, out=fb)
                np.trunc(fb, out=fb)
                jb[...] = fb
                # the fraction of x * n past its bin
                np.subtract(np.multiply(xb, n, out=wb), fb, out=wb)
                np.less_equal(wb, _BIN_MARGIN, out=sb)
                sb |= np.greater_equal(wb, 1.0 - _BIN_MARGIN, out=eb)
                # ob may be xb itself, so the slow points are copied first
                x_slow = xb[sb] if sb.any() else None
                # every bin is valid, and take buffers ``out`` unless it clips
                np.subtract(xb, np.take(grid, jb, out=wb, mode="clip"), out=wb)
                np.multiply(np.take(slopes, jb, out=ob, mode="clip"), wb, out=ob)
                ob += np.take(nodes, jb, out=wb, mode="clip")
                if x_slow is not None:
                    ob[sb] = np.interp(x_slow, grid, nodes)
        return out


@dataclass(frozen=True)
class HaarIndex:
    """Level/position index of a Haar step function on (0, 1).

    Position j = 0 is the constant function and is only valid at level k = 0;
    otherwise 1 <= j <= 2^k.
    """

    k: int
    j: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"level must be non-negative, got k={self.k}")
        if self.k == 0:
            if self.j not in (0, 1):
                raise ValueError(f"level 0 admits j in {{0, 1}}, got j={self.j}")
        elif not 1 <= self.j <= 2 ** self.k:
            raise ValueError(f"need 1 <= j <= 2^{self.k}, got j={self.j}")


def haar_function(idx: HaarIndex) -> PiecewiseConstant1D:
    """The Haar function as a piecewise constant on the 2^(k+1)-cell grid."""
    m = 2 ** (idx.k + 1)
    coeffs = np.zeros(m)
    if idx.j >= 1:
        s = math.sqrt(2.0 ** idx.k)
        coeffs[2 * idx.j - 2] = s
        coeffs[2 * idx.j - 1] = -s
    else:
        coeffs[:] = 1.0
    return PiecewiseConstant1D(coeffs)


def _ordered_sum(a: np.ndarray, terms, tail=None) -> float:
    """sum of w |a_i - a_{i+o}| over the stencil's pairs, then of the terms
    ``tail(a)`` if given, added left to right by ``np.cumsum``: the plain
    loop over terms, then cells, then the tail, bit for bit
    (``Stencil.value``'s dot product adds in another order). An overflow
    leaves inf or nan, and a sum that is not finite raises ``ValueError``."""
    st = stencil.Stencil(a.shape, terms)
    with np.errstate(all="ignore"):
        t = st.pair_weights() * np.abs(st.gather(a))
        if tail is not None:
            t = np.concatenate([t, tail(a)])
        total = float(np.cumsum(t)[-1]) if t.size else 0.0
    if not math.isfinite(total):
        raise ValueError("the value of the closed form is beyond the float range")
    return total


def eval_pc_box(f: PiecewiseConstant1D) -> float:
    """Nonlocal TV of a piecewise constant under the matched box kernel.

    Equals the classical discrete TV seminorm of the coefficient vector; the
    sum is accumulated left to right so the result is bit-identical to the
    plain loop it claims to be.
    """
    return _ordered_sum(f.coeffs, BOX_TERMS)


def eval_pc_box_wide(f: PiecewiseConstant1D) -> float:
    """Nonlocal TV of a piecewise constant under the matched double-width box
    kernel: ln(2) times the adjacent differences plus (1 - ln 2)/2 times the
    second differences."""
    if f.n < 2:
        raise ValueError("the double-width scheme needs at least two cells")
    return _ordered_sum(f.coeffs, BOX2_TERMS)


def _spline_edge_terms(a: np.ndarray) -> np.ndarray:
    """The three-point edge term of every interior node, in node order: the
    second branch where the two differences have opposite signs, the first
    elsewhere (both agree where one difference vanishes, and 0/0 never
    runs). Its squares are ``np.float_power``'s, the C library's ``pow``
    that Python's ``**`` calls: numpy's square differed from it in the last
    bit of 1 in 1,200 random doubles."""
    am, a0, ap = a[:-2], a[1:-1], a[2:]
    terms = np.abs(ap - am) / 4.0
    second = np.sign(am - a0) * np.sign(a0 - ap) < 0.0
    left, right = a0[second] - am[second], a0[second] - ap[second]
    terms[second] = ((np.float_power(left, 2) + np.float_power(right, 2))
                     / (4.0 * (np.abs(left) + np.abs(right))))
    return terms


def eval_spline(f: Spline1D) -> float:
    """Nonlocal TV of a linear spline under the matched box kernel: half the
    node TV, then the edge term of each interior node in order."""
    if f.n < 2:
        raise ValueError("the spline scheme needs at least two intervals")
    # half the TV: |d| * 0.5 is |d| / 2.0 exactly
    return _ordered_sum(f.nodes, (((1,), 0.5),), _spline_edge_terms)


# ---------------------------------------------------------------------------
# Haar branch tables.
#
# Each branch is an explicit function of a real-valued kernel scale, valid on
# a closed interval; adjacent branches agree at the shared endpoints. Note:
# two of the published inner-branch formulas carry sign typos (they produce
# negative or discontinuous values); the signs used here are the ones that
# make the table continuous and agree with direct quadrature of the defining
# double integral.


@dataclass(frozen=True)
class HaarBranch:
    lo: float
    hi: float
    value: Callable[[float], float]

    def covers(self, scale: float) -> bool:
        return self.lo <= scale <= self.hi


def haar_branches(idx: HaarIndex) -> list:
    """Branch table (list of HaarBranch) for the given index.

    Positions beyond the midpoint are first reflected via the mirror symmetry
    R(h_j) = R(h_{2^k - j + 1}).
    """
    k, j = idx.k, idx.j
    if k == 0 and j == 0:
        return [HaarBranch(1.0, math.inf, lambda n: 0.0)]
    if k == 0 and j == 1:
        return [
            HaarBranch(1.0, 1.0, lambda n: 2.0 * _LN2),
            HaarBranch(2.0, math.inf, lambda n: 2.0),
        ]
    if j > 2 ** (k - 1):
        j = 2 ** k - j + 1
    s = math.sqrt(2.0 ** k)
    tk = float(2 ** k)
    if j == 1:
        return [
            HaarBranch(1.0, 1.0, lambda n: s * (
                (k + 1.0 / 2 ** (k - 1)) * _LN2
                - (1.0 - 1.0 / tk) * math.log(tk - 1.0))),
            HaarBranch(2.0, tk, lambda n: (n / s) * (
                (k + 2) * _LN2 - math.log(n) + 1.0)),
            HaarBranch(tk, 2.0 * tk, lambda n: s * n * (
                (k + 1) / 2 ** (k - 1) * _LN2 - math.log(n) / 2 ** (k - 1)
                + 1.0 / 2 ** (k - 1) - 1.0 / n)),
            HaarBranch(2.0 * tk, math.inf, lambda n: 3.0 * s),
        ]
    lj1 = math.log(j - 1.0) if j > 1 else 0.0
    lj = math.log(float(j))
    return [
        HaarBranch(1.0, 1.0, lambda n: s * (
            j * lj / tk - (j - 1) * lj1 / tk
            - (1.0 - j / tk) * math.log(tk - j)
            + (1.0 - (j - 1.0) / tk) * math.log(tk - j + 1.0)
            + _LN2 / 2 ** (k - 1))),
        HaarBranch(tk / (tk - j), tk / j, lambda n: (n / s) * (
            j * lj - (j - 1) * lj1 + (k + 2) * _LN2 - math.log(n) + 1.0)),
        HaarBranch(tk / j, tk / (j - 1), lambda n: n * s * (
            -(j - 1) * lj1 / tk - (j + 1) * math.log(n) / tk
            + (k * j + k + 2) * _LN2 / tk + (j + 1) / tk - 1.0 / n)),
        HaarBranch(tk / (j - 1), 2.0 * tk, lambda n: (2.0 * n / s) * (
            (k + 1) * _LN2 - math.log(n) + 1.0)),
        HaarBranch(2.0 * tk, math.inf, lambda n: 4.0 * s),
    ]


def eval_haar(idx: HaarIndex, n: int) -> float:
    """Nonlocal TV of the Haar function h_j^(k) under the box kernel at
    integer scale ``n``, from the exact branch table.

    At a shared interval endpoint the later branch wins, so the constant
    large-scale values are returned verbatim rather than through the
    logarithmic formulas that meet them there. The branches cover every
    scale; a scale or value beyond the float range raises ``ValueError``.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"kernel scale must be a positive integer, got {n!r}")
    try:
        value = next(float(b.value(float(n))) for b in reversed(haar_branches(idx))
                     if b.covers(float(n)))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the scale or value of {idx} is beyond the float range")
    return value
