"""Closed-form evaluation of the nonlocal TV functional for 1D finite elements.

Three element families on the unit interval, each with its matched kernel:

* piecewise constants + ``box``  -> the classical discrete TV seminorm,
* piecewise constants + ``box2`` -> a second-difference corrected TV,
* linear splines + ``box``       -> half-TV plus a three-point edge term,
* Haar step functions + ``box``  -> an explicit branch table in the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_LN2 = math.log(2.0)

# box2 pair weights of the adjacent and the second differences
BOX2_WEIGHTS = (_LN2, 0.5 * (1.0 - _LN2))

# Spline1D evaluation: inputs up to this size go straight to np.interp (its
# binary search is faster there), larger ones are split into blocks of
# _INTERP_BLOCK points. The bin margin is safe while n * 3 * 2**-53 stays
# well below it, which _INTERP_MAX_BINS guarantees with a factor of three.
_INTERP_DIRECT_MAX = 1024
_INTERP_BLOCK = 1 << 15
_INTERP_MAX_BINS = 1 << 20
_BIN_MARGIN = 1e-9


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

    def __post_init__(self):
        arr = _as_finite_vector(self.nodes, "nodes")
        if arr.size < 2:
            raise ValueError("need at least two nodes")
        object.__setattr__(self, "nodes", arr)

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    def __call__(self, x) -> np.ndarray:
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
        """
        x = np.asarray(x, dtype=float)
        n = self.n
        grid = np.linspace(0.0, 1.0, n + 1)
        if x.size <= _INTERP_DIRECT_MAX or n > _INTERP_MAX_BINS:
            return np.interp(x, grid, self.nodes)
        nodes = self.nodes
        slopes = np.diff(nodes) / np.diff(grid)
        flat = x.reshape(-1)
        out = np.empty(flat.size)
        size = min(_INTERP_BLOCK, flat.size)
        frac = np.empty(size)
        work = np.empty(size)
        bins = np.empty(size, dtype=np.intp)
        # far-out points overflow or meet inf; they all take the slow path
        with np.errstate(all="ignore"):
            for lo in range(0, flat.size, _INTERP_BLOCK):
                xb = flat[lo:lo + _INTERP_BLOCK]
                ob = out[lo:lo + _INTERP_BLOCK]
                k = xb.size
                fb, wb, jb = frac[:k], work[:k], bins[:k]
                np.multiply(xb, n, out=fb)
                # fmax/fmin also map nan to a valid bin
                np.fmin(np.fmax(fb, 0.0, out=wb), n - 1, out=wb)
                jb[...] = wb
                np.subtract(fb, jb, out=fb)
                slow = (fb <= _BIN_MARGIN) | (fb >= 1.0 - _BIN_MARGIN)
                np.subtract(xb, np.take(grid, jb, out=wb), out=wb)
                np.multiply(np.take(slopes, jb), wb, out=ob)
                ob += np.take(nodes, jb)
                if slow.any():
                    ob[slow] = np.interp(xb[slow], grid, nodes)
        return out.reshape(x.shape)


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


def eval_pc_box(f: PiecewiseConstant1D) -> float:
    """Nonlocal TV of a piecewise constant under the matched box kernel.

    Equals the classical discrete TV seminorm of the coefficient vector; the
    sum is accumulated left to right so the result is bit-identical to the
    plain loop it claims to be.
    """
    a = f.coeffs
    total = 0.0
    for i in range(1, a.size):
        total += abs(float(a[i]) - float(a[i - 1]))
    return total


def eval_pc_box_wide(f: PiecewiseConstant1D) -> float:
    """Nonlocal TV of a piecewise constant under the matched double-width box
    kernel: ln(2) times the adjacent differences plus (1 - ln 2)/2 times the
    second differences."""
    if f.n < 2:
        raise ValueError("the double-width scheme needs at least two cells")
    a = f.coeffs
    adjacent, second = BOX2_WEIGHTS
    total = 0.0
    for i in range(1, a.size):
        total += adjacent * abs(float(a[i]) - float(a[i - 1]))
    for i in range(1, a.size - 1):
        total += second * abs(float(a[i + 1]) - float(a[i - 1]))
    return total


def _spline_edge_term(am: float, a0: float, ap: float) -> float:
    # Zero differences are routed to the first branch; the two branches agree
    # whenever one difference vanishes, so the choice is value-neutral.
    d_left = am - a0
    d_right = a0 - ap
    if d_left == 0.0 or d_right == 0.0 or (d_left > 0.0) == (d_right > 0.0):
        return abs(ap - am) / 4.0
    return ((a0 - am) ** 2 + (a0 - ap) ** 2) / (4.0 * (abs(a0 - am) + abs(a0 - ap)))


def eval_spline(f: Spline1D) -> float:
    """Nonlocal TV of a linear spline under the matched box kernel."""
    if f.n < 2:
        raise ValueError("the spline scheme needs at least two intervals")
    a = f.nodes
    total = 0.0
    for i in range(1, a.size):
        total += abs(float(a[i]) - float(a[i - 1])) / 2.0
    for i in range(1, a.size - 1):
        total += _spline_edge_term(float(a[i - 1]), float(a[i]), float(a[i + 1]))
    return total


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
    logarithmic formulas that meet them there.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"kernel scale must be a positive integer, got {n!r}")
    for branch in reversed(haar_branches(idx)):
        if branch.covers(float(n)):
            return float(branch.value(float(n)))
    raise ValueError(f"no branch covers scale n={n} for index {idx}")
