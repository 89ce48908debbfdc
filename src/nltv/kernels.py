"""Mollifier kernels and the spherical normalization constants.

The kernel family consists of four compactly supported, unit-mass mollifiers
indexed by a scale ``n`` (support shrinks like 1/n):

* ``box``    : (n/2) on [-1/n, 1/n]                 (1D)
* ``box2``   : (n/4) on [-2/n, 2/n]                 (1D, double width)
* ``disc``   : (n^2/pi) on the disc |v| <= 1/n      (2D, radial)
* ``square`` : (n^2/4) on [-1/n, 1/n]^2             (2D, *not* radial)

The scale index is deliberately decoupled from any grid resolution so that
mismatched kernel/grid combinations can be evaluated by the quadrature oracle.

Each support is the ball of radius ``support_radius`` in one norm, Euclidean
or (``square``) the sup norm, and every rule on its shape is written here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class KernelKind(enum.Enum):
    BOX1D = "box"
    BOX1D_WIDE = "box2"
    DISC2D = "disc"
    SQUARE2D = "square"


_DIMS = {
    KernelKind.BOX1D: 1,
    KernelKind.BOX1D_WIDE: 1,
    KernelKind.DISC2D: 2,
    KernelKind.SQUARE2D: 2,
}
KINDS_2D = tuple(kind.value for kind, dim in _DIMS.items() if dim == 2)  # an image's kernels


@dataclass(frozen=True)
class Kernel:
    """A mollifier from the family above, at scale index ``n >= 1``."""

    kind: KernelKind
    n: int

    def __post_init__(self):
        if self.kind not in _DIMS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"kernel scale must be a positive integer, got {self.n!r}")

    @property
    def dim(self) -> int:
        return _DIMS[self.kind]

    @property
    def support_radius(self) -> float:
        """Radius of the support in the norm that bounds it."""
        if self.kind is KernelKind.BOX1D_WIDE:
            return 2.0 / self.n
        return 1.0 / self.n

    @property
    def sup_norm(self) -> bool:
        """Whether the sup norm bounds the support (``square``); the Euclidean
        norm bounds every other kind."""
        return self.kind is KernelKind.SQUARE2D

    def norm(self, u):
        """The norm that bounds the support, of offsets given as one float or
        array per axis."""
        if self.sup_norm:
            return np.maximum(np.abs(u[0]), np.abs(u[1]))
        return np.sqrt(sum(a * a for a in u))

    def outside(self, u, euclidean, out, spare):
        """Where the offsets ``u`` (one array per axis) lie outside the
        support, into the boolean array ``out``, given their Euclidean norm
        as :meth:`norm` computes it. The sup norm needs only the boolean
        ``spare``: |a| > r is exactly a > r or a < -r."""
        if not self.sup_norm:
            return np.greater(euclidean, self.support_radius, out=out)
        out.fill(False)
        for a in u:
            out |= np.greater(a, self.support_radius, out=spare)
            out |= np.less(a, -self.support_radius, out=spare)
        return out

    def cap(self, c, s):
        """Distance from the origin to the boundary of the 2D support along
        the unit directions (``c``, ``s``), arrays."""
        if self.sup_norm:
            return self.support_radius / self.norm((c, s))
        return np.full(np.shape(c), self.support_radius)

    def crossing_angles(self, c: float) -> list:
        """Angles in [0, pi/2] at which the lines x = c and y = c, c > 0,
        cross the boundary of the 2D support: at (c, r) and (r, c) for
        ``square``."""
        r = self.support_radius
        if c >= r:
            return []
        if self.sup_norm:
            return [math.atan2(r, c), math.atan2(c, r)]
        return [math.acos(c / r), math.asin(c / r)]

    @property
    def height(self) -> float:
        """Constant value taken on the support."""
        if self.kind is KernelKind.BOX1D:
            return self.n / 2.0
        if self.kind is KernelKind.BOX1D_WIDE:
            return self.n / 4.0
        if self.kind is KernelKind.DISC2D:
            return self.n * self.n / math.pi
        return self.n * self.n / 4.0


def kernel_eval(kernel: Kernel, x) -> float:
    """Evaluate the mollifier at a point of R^dim (total function, zero outside
    the support)."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (kernel.dim,):
        raise ValueError(f"expected a point in R^{kernel.dim}, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("point must be finite")
    return kernel.height if kernel.norm(pt) <= kernel.support_radius else 0.0


def in_reach(kernel: Kernel, n: int, offset: tuple) -> bool:
    """Whether the kernel reaches any pair of cells at this offset on the
    grid of n cells per axis: whether the gap between the two cells is below
    r in the norm that bounds the support. In the sup norm (and in 1D, where
    both norms agree) each axis's index distance is at most r/h + 1."""
    h = 1.0 / n
    r = kernel.support_radius
    if kernel.dim == 1 or kernel.sup_norm:
        return max(abs(o) for o in offset) <= math.floor(r / h + 1.0 - 1e-12)
    return math.hypot(*(max(abs(o) - 1, 0) * h for o in offset)) < r


def offsets_within_reach(kernel: Kernel, n: int) -> list:
    """Offsets in kernel reach that fit a cell pair on the n-cell (1D) or
    n x n (2D) grid, one per unordered pair direction: ``(d,)`` with d
    ascending in 1D; in 2D ``(dx, dy)`` over the half plane dx > 0, or dx = 0
    and dy > 0, with dx outermost."""
    # in either norm no offset beyond floor(r/h) + 1 cells is in reach
    reach = min(int(math.floor(kernel.support_radius / (1.0 / n))) + 1, n - 1)
    if kernel.dim == 1:
        candidates = [(d,) for d in range(1, reach + 1)]
    else:
        candidates = [(dx, dy) for dx in range(reach + 1)
                      for dy in range(-reach, reach + 1) if dx > 0 or dy > 0]
    return [off for off in candidates if in_reach(kernel, n, off)]


@dataclass(frozen=True)
class KpnConstant:
    """Spherical average of |<e, sigma>|^p used to normalize the functional."""

    p: float
    dim: int
    value: float


def kpn(p: float, dim: int) -> KpnConstant:
    """Normalization constant: the average of |<e, sigma>|^p over the unit
    sphere of R^dim, with the convention that the value is 1 in dimension one.

    In the plane the value is Gamma((p+1)/2) / (sqrt(pi) Gamma(p/2 + 1)),
    exact for p in {1, 2} and within 3e-15 relative elsewhere. Dimensions
    above two are rejected since no scheme here needs them.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim == 1:
        return KpnConstant(p=p, dim=1, value=1.0)
    if dim != 2:
        raise ValueError("only dimensions 1 and 2 are supported")
    if p == 1:
        value = 2.0 / math.pi
    elif p == 2:
        value = 0.5
    elif p < 26:
        value = math.gamma((p + 1) / 2) / (math.sqrt(math.pi) * math.gamma(p / 2 + 1))
    else:
        # math.gamma loses accuracy as its argument grows (7e-14 relative in
        # the ratio near p = 254) and overflows from p = 342 on. With
        # y = p/2 + 1/4, the log of sqrt(y) Gamma(y + 1/4) / Gamma(y + 3/4)
        # has an asymptotic series in 1/y^2 (Euler-number coefficients),
        # whose next term is below 2e-16 from p = 26 on.
        y = p / 2 + 0.25
        t = 1.0 / (y * y)
        log_ratio = t * (-1 / 64 + t * (5 / 2048 + t * (-61 / 49152 + t * (
            1385 / 1048576 + t * (-50521 / 20971520)))))
        value = math.exp(log_ratio) / math.sqrt(math.pi * y)
    return KpnConstant(p=p, dim=2, value=value)
