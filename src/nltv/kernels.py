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
    def is_radial(self) -> bool:
        # the square kernel is the one non-radial member of the family
        return self.kind is not KernelKind.SQUARE2D

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


def radial_profile(kernel: Kernel, r: float) -> float:
    """Radial profile value at radius ``r >= 0`` for the radial kinds."""
    if not kernel.is_radial:
        raise ValueError("the square kernel is not radial; it has no profile")
    if r < 0:
        raise ValueError("radius must be non-negative")
    return kernel.height if r <= kernel.support_radius else 0.0


def kernel_eval(kernel: Kernel, x) -> float:
    """Evaluate the mollifier at a point of R^dim (total function, zero outside
    the support)."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (kernel.dim,):
        raise ValueError(f"expected a point in R^{kernel.dim}, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("point must be finite")
    if kernel.kind is KernelKind.SQUARE2D:
        inside = np.max(np.abs(pt)) <= kernel.support_radius
        return kernel.height if inside else 0.0
    return radial_profile(kernel, float(np.sqrt(np.sum(pt * pt))))


def _kpn_integrand(theta: np.ndarray, p: float) -> np.ndarray:
    return np.abs(np.cos(theta)) ** p


@dataclass(frozen=True)
class KpnConstant:
    """Spherical average of |<e, sigma>|^p used to normalize the functional."""

    p: float
    dim: int
    value: float


def kpn(p: float, dim: int) -> KpnConstant:
    """Normalization constant: the average of |<e, sigma>|^p over the unit
    sphere of R^dim, with the convention that the value is 1 in dimension one.

    Closed forms are wired in for p in {1, 2}; other exponents fall back to
    adaptive quadrature over the angle (absolute tolerance 1e-12). Dimensions
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
    else:
        # scipy.integrate alone costs more than the rest of `import nltv`
        from scipy import integrate

        # average over S^1; integrand is symmetric over quarter periods
        quarter, _ = integrate.quad(_kpn_integrand, 0.0, math.pi / 2, args=(p,),
                                    epsabs=1e-12, epsrel=1e-12)
        value = (2.0 / math.pi) * quarter
    return KpnConstant(p=p, dim=2, value=value)
