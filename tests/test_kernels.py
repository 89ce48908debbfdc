import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nltv
from nltv import Kernel, KernelKind, kernel_eval, kpn
from nltv.kernels import offsets_within_reach

ALL_KINDS = list(KernelKind)
RADIAL_KINDS = [KernelKind.BOX1D, KernelKind.BOX1D_WIDE, KernelKind.DISC2D]


def numeric_mass(kernel: Kernel, panels: int = 8, g: int = 12) -> float:
    """Gauss quadrature of kernel_eval over the support, treating the kernel
    as a black box."""
    nodes, weights = np.polynomial.legendre.leggauss(g)
    r = kernel.support_radius
    if kernel.dim == 1:
        edges = np.linspace(-r, r, panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            pts = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            total += 0.5 * (b - a) * sum(
                w * kernel_eval(kernel, (x,)) for x, w in zip(pts, weights))
        return total
    if kernel.kind is KernelKind.DISC2D:
        edges = np.linspace(0.0, r, panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            pts = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            total += 0.5 * (b - a) * sum(
                w * kernel_eval(kernel, (x, 0.0)) * 2 * math.pi * x
                for x, w in zip(pts, weights))
        return total
    edges = np.linspace(-r, r, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        for c, d in zip(edges[:-1], edges[1:]):
            px = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            py = 0.5 * (c + d) + 0.5 * (d - c) * nodes
            for x, wx in zip(px, weights):
                for y, wy in zip(py, weights):
                    total += 0.25 * (b - a) * (d - c) * wx * wy \
                        * kernel_eval(kernel, (x, y))
    return total


def test_kernel_eval_examples():
    assert kernel_eval(Kernel(KernelKind.BOX1D, 2), (0.0,)) == 1.0
    assert kernel_eval(Kernel(KernelKind.DISC2D, 1), (2.0, 0.0)) == 0.0
    assert kernel_eval(Kernel(KernelKind.SQUARE2D, 3), (0.1, -0.2)) == 9.0 / 4.0


def test_kernel_eval_is_total_and_validates():
    k = Kernel(KernelKind.BOX1D, 2)
    assert kernel_eval(k, (10.0,)) == 0.0
    with pytest.raises(ValueError):
        kernel_eval(k, (0.0, 0.0))
    with pytest.raises(ValueError):
        kernel_eval(k, (float("nan"),))
    with pytest.raises(ValueError):
        Kernel(KernelKind.BOX1D, 0)
    # the kind is a KernelKind, not its value
    with pytest.raises(ValueError, match="unknown kernel kind 'disc'"):
        Kernel("disc", 3)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_numeric_mass_matches_for_all_scales(kind):
    panels = 2 if kind is KernelKind.SQUARE2D else 8
    for n in range(1, 65):
        k = Kernel(kind, n)
        assert abs(numeric_mass(k, panels=panels) - 1.0) < 1e-8


def test_radial_rotation_invariance():
    rng = np.random.default_rng(5)
    k = Kernel(KernelKind.DISC2D, 3)
    for _ in range(100):
        x = rng.uniform(-0.6, 0.6, 2)
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        rx = (c * x[0] - s * x[1], s * x[0] + c * x[1])
        assert kernel_eval(k, x) == kernel_eval(k, rx)
    # the orthogonal group in one dimension is the reflection
    for kind in (KernelKind.BOX1D, KernelKind.BOX1D_WIDE):
        k = Kernel(kind, 4)
        for _ in range(100):
            x = float(rng.uniform(-0.8, 0.8))
            assert kernel_eval(k, (x,)) == kernel_eval(k, (-x,))


def test_square_reach_is_the_sup_norm_ball():
    # on 12^2 at scale 3 (r = 4h) the cells at offset (4, 4) are 3h apart on
    # each axis: below r in the sup norm, 3 sqrt(2) h in the Euclidean norm
    square = offsets_within_reach(Kernel(KernelKind.SQUARE2D, 3), 12)
    assert (4, 4) in square and (4, -4) in square
    # every offset of the 9 x 9 box of the half plane, and none 4h = r apart
    assert len(square) == 4 * 9 + 4
    assert (5, 0) not in square and (0, 5) not in square
    disc = offsets_within_reach(Kernel(KernelKind.DISC2D, 3), 12)
    assert (4, 4) not in disc and (4, 0) in disc


def test_kpn_examples():
    assert kpn(1.0, 1).value == 1.0
    assert abs(kpn(1.0, 2).value - 2.0 / math.pi) < 1e-15
    assert kpn(2.0, 2).value == 0.5


def test_kpn_general_p_matches_gamma_function_form():
    # closed form: Gamma((p+1)/2) / (sqrt(pi) Gamma(p/2 + 1))
    for p in (1.5, 2.5, 3.0, 4.0):
        expected = math.gamma((p + 1) / 2) / (math.sqrt(math.pi)
                                              * math.gamma(p / 2 + 1))
        assert abs(kpn(p, 2).value - expected) < 1e-12


@pytest.mark.parametrize("p, expected", [
    # Gamma((p+1)/2) / (sqrt(pi) Gamma(p/2 + 1)) in mpmath at 50 digits
    (1.5, 0.5564178944493822),
    (25.99, 0.15501025669323637),
    (26.0, 0.15498101711273193),
    (100.0, 0.07958923738717877),
    (254.4, 0.049975221307085406),
    (299.5, 0.0460658546062123),
    (300.0, 0.04602751441903444),
    (1e3, 0.0252250181783608),
    (1e6, 0.0007978843613317501),
    (1e8, 7.97884558808154e-05),
    (1e9, 2.5231325213893768e-05),
    (1e12, 7.978845608026659e-07),
])
def test_kpn_matches_high_precision_values(p, expected):
    assert abs(kpn(p, 2).value - expected) <= 1e-15 * expected


def test_import_loads_no_scipy():
    # kpn is closed form at every exponent
    src = str(Path(nltv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, nltv; nltv.kpn(1.5, 2); nltv.kpn(1e6, 2); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_kpn_monotone_in_p():
    values = [kpn(p, 2).value for p in (1.0, 1.5, 2.0, 3.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(0 < v <= 1 for v in values)


def test_kpn_rejects_bad_arguments():
    for p in (0.5, math.nan, math.inf):
        for dim in (1, 2):
            with pytest.raises(ValueError, match="p must be >= 1 and finite"):
                kpn(p, dim)
    with pytest.raises(ValueError):
        kpn(1.0, 0)
    with pytest.raises(ValueError):
        kpn(1.0, 3)
