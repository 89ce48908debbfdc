"""Mollifier kernels and the spherical normalization constants.

The kernel family consists of four compactly supported, unit-mass mollifiers
indexed by a scale ``n`` (support shrinks like 1/n):

* ``box``    : (n/2) on [-1/n, 1/n]                 (1D)
* ``box2``   : (n/4) on [-2/n, 2/n]                 (1D, double width)
* ``disc``   : (n^2/pi) on the disc |v| <= 1/n      (2D, radial)
* ``square`` : (n^2/4) on [-1/n, 1/n]^2             (2D, *not* radial)

The scale index is deliberately decoupled from any grid resolution so that
mismatched kernel/grid combinations can be evaluated by the quadrature oracle.
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
        """Half-width of the support (Euclidean radius; sup-norm for square)."""
        if self.kind is KernelKind.BOX1D_WIDE:
            return 2.0 / self.n
        return 1.0 / self.n

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
    if kernel.kind is KernelKind.SQUARE2D:
        norm = np.max(np.abs(pt))
    else:
        norm = float(np.sqrt(np.sum(pt * pt)))
    return kernel.height if norm <= kernel.support_radius else 0.0


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
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
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
