import math

import numpy as np
import pytest

from nltv import (
    Image2D,
    Kernel,
    KernelKind,
    OracleConfig,
    StencilWeights,
    eval_image,
    oracle_eval,
    stencil_weights,
)

SQRT2 = math.sqrt(2.0)


def naive_eval(a: np.ndarray, lateral: float, diagonal: float) -> float:
    """Plain loop over the 8-neighbour pairs, counting each unordered pair
    once; reimplemented independently of the vectorized path."""
    n = a.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                total += lateral * abs(a[i, j] - a[i, j + 1])
            if i + 1 < n:
                total += lateral * abs(a[i, j] - a[i + 1, j])
            if i + 1 < n and j + 1 < n:
                total += diagonal * abs(a[i, j] - a[i + 1, j + 1])
            if i + 1 < n and j - 1 >= 0:
                total += diagonal * abs(a[i, j] - a[i + 1, j - 1])
    return total


def test_stencil_weight_examples():
    w = stencil_weights(KernelKind.DISC2D, 4)
    assert abs(w.lateral - 1.0 / (3 * math.pi)) < 1e-15
    assert abs(w.diagonal - 1.0 / (12 * math.pi)) < 1e-15
    with pytest.raises(ValueError):
        stencil_weights(KernelKind.SQUARE2D, 1)
    with pytest.raises(ValueError, match="lateral > diagonal > 0"):
        StencilWeights(1.0, 2.0)
    w = stencil_weights(KernelKind.SQUARE2D, 2)
    assert abs(w.diagonal - (SQRT2 - 1) / 6) < 1e-15
    expected_lat = (3 * math.log(SQRT2 + 1) - 3 * math.log(SQRT2 - 1)
                    - 2 * (SQRT2 - 1)) / 24
    assert abs(w.lateral - expected_lat) < 1e-15
    assert abs(w.lateral - 0.1858256) < 1e-6
    assert abs(w.diagonal - 0.0690356) < 1e-6


def test_stencil_rejects_1d_kernels():
    with pytest.raises(ValueError):
        stencil_weights(KernelKind.BOX1D, 4)


@pytest.mark.parametrize("kind", [KernelKind.DISC2D, KernelKind.SQUARE2D])
def test_lateral_exceeds_diagonal(kind):
    for n in (2, 3, 8, 64):
        w = stencil_weights(kind, n)
        assert w.lateral > w.diagonal > 0


def test_eval_image_examples():
    assert eval_image(Image2D(np.full((3, 3), 0.4)), KernelKind.DISC2D) == 0.0
    value = eval_image(Image2D([[0.0, 1.0], [0.0, 1.0]]), KernelKind.DISC2D)
    assert abs(value - 10.0 / (6 * math.pi)) < 1e-14
    with pytest.raises(ValueError):
        eval_image(Image2D([[1.0]]), KernelKind.DISC2D)
    with pytest.raises(ValueError):
        Image2D(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least one cell"):
        Image2D(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="finite"):
        Image2D([[0.0, math.inf], [0.0, 0.0]])
    # a difference that overflows is refused, and no numpy warning leaks
    with pytest.raises(ValueError, match="beyond the float range"):
        eval_image(Image2D([[1.7e308, -1.7e308], [0.0, 0.0]]), KernelKind.SQUARE2D)


@pytest.mark.parametrize("kind", [KernelKind.DISC2D, KernelKind.SQUARE2D])
def test_matches_naive_loop(kind):
    rng = np.random.default_rng(10)
    for n in (2, 3, 5, 8):
        a = rng.uniform(0, 1, (n, n))
        w = stencil_weights(kind, n)
        got = eval_image(Image2D(a), kind)
        ref = naive_eval(a, w.lateral, w.diagonal)
        assert abs(got - ref) < 1e-13 * max(ref, 1.0)


def test_checkerboard_value():
    n = 3
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a = ((ii + jj) % 2).astype(float)
    w = stencil_weights(KernelKind.DISC2D, n)
    # every lateral pair differs by one, diagonal pairs are all equal
    assert eval_image(Image2D(a), KernelKind.DISC2D) == pytest.approx(
        2 * n * (n - 1) * w.lateral, rel=1e-14)


@pytest.mark.parametrize("kind", [KernelKind.DISC2D, KernelKind.SQUARE2D])
def test_transpose_and_rotation_invariance(kind):
    rng = np.random.default_rng(12)
    for n in (2, 3, 6):
        a = rng.uniform(-1, 1, (n, n))
        base = eval_image(Image2D(a), kind)
        assert eval_image(Image2D(a.T.copy()), kind) == base
        assert eval_image(Image2D(np.rot90(a).copy()), kind) == base


def test_shift_homogeneity_convexity():
    rng = np.random.default_rng(13)
    kind = KernelKind.DISC2D
    for _ in range(60):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        ea, eb = eval_image(Image2D(a), kind), eval_image(Image2D(b), kind)
        assert abs(eval_image(Image2D(a + 3.7), kind) - ea) <= 1e-12 * max(ea, 1.0)
        for lam in (-2.0, -1.0, 0.5, 3.0):
            got = eval_image(Image2D(lam * a), kind)
            assert abs(got - abs(lam) * ea) <= 1e-12 * max(ea, 1.0)
        for theta in (0.25, 0.5, 0.75):
            mix = eval_image(Image2D(theta * a + (1 - theta) * b), kind)
            assert mix <= theta * ea + (1 - theta) * eb + 1e-12


@pytest.mark.parametrize("kind", [KernelKind.DISC2D, KernelKind.SQUARE2D])
def test_oracle_agreement(kind):
    rng = np.random.default_rng(14)
    gauss = OracleConfig(method="gauss", points_per_cell_axis=8)
    mc = OracleConfig(method="mc", samples=200_000, seed=9)
    for n in (2, 3, 4):
        img = Image2D(rng.uniform(0, 1, (n, n)))
        closed = eval_image(img, kind)
        got_g = oracle_eval(img, Kernel(kind, n), gauss).value
        got_m = oracle_eval(img, Kernel(kind, n), mc).value
        assert abs(got_g - closed) <= 1e-6 * closed
        assert abs(got_m - closed) <= 1e-2 * closed
