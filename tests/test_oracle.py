import math
from dataclasses import replace

import numpy as np
import pytest

from nltv import (
    Image2D,
    Kernel,
    KernelKind,
    OracleConfig,
    PiecewiseConstant1D,
    Spline1D,
    fit_stencil,
    kernel_eval,
    oracle_eval,
    stencil_weights,
)
from nltv.oracle import (
    _factor_1d,
    _factor_2d,
    _kernel_values_2d,
    geometric_factor_1d,
    geometric_factor_2d,
    oracle_stencil,
)

BOX = Kernel(KernelKind.BOX1D, 4)
WIDE = Kernel(KernelKind.BOX1D_WIDE, 6)
DISC = Kernel(KernelKind.DISC2D, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(method="quadrature")
    with pytest.raises(ValueError):
        OracleConfig(method="mc", samples=100)
    with pytest.raises(ValueError):
        OracleConfig(points_per_cell_axis=1)
    with pytest.raises(ValueError):
        OracleConfig(points_per_cell_axis=65)
    with pytest.raises(ValueError):
        OracleConfig(p=0.5)
    with pytest.raises(ValueError):
        OracleConfig(seed=-1)
    with pytest.raises(ValueError):
        OracleConfig(exclusion_band=0.0)


def test_constant_input_is_exactly_zero():
    report = oracle_eval(PiecewiseConstant1D([2.0] * 5),
                         Kernel(KernelKind.BOX1D, 5),
                         OracleConfig(method="mc", samples=10_000))
    assert report.value == 0.0 and report.stderr_estimate == 0.0
    report = oracle_eval(Image2D(np.ones((3, 3))), DISC,
                         OracleConfig(method="mc", samples=10_000))
    assert report.value == 0.0


def test_pc_step_example():
    f = PiecewiseConstant1D([0.0, 1.0])
    got = oracle_eval(f, Kernel(KernelKind.BOX1D, 2),
                      OracleConfig(method="mc", samples=100_000, seed=1))
    assert abs(got.value - 1.0) <= 1e-3


def test_image_edge_example():
    img = Image2D([[0.0, 1.0], [0.0, 1.0]])
    got = oracle_eval(img, Kernel(KernelKind.DISC2D, 2),
                      OracleConfig(method="mc", samples=200_000, seed=2))
    assert abs(got.value - 0.5305165) <= 1e-2


@pytest.mark.parametrize("method", ["mc", "gauss"])
def test_determinism(method):
    rng = np.random.default_rng(3)
    cfg = OracleConfig(method=method, samples=20_000, seed=11)
    inputs = [
        (PiecewiseConstant1D(rng.standard_normal(6)), WIDE),
        (Image2D(rng.uniform(0, 1, (3, 3))), DISC),
        (Spline1D(rng.standard_normal(5)), Kernel(KernelKind.BOX1D, 4)),
    ]
    for f, kernel in inputs:
        a = oracle_eval(f, kernel, cfg)
        b = oracle_eval(f, kernel, cfg)
        assert a.value == b.value
        assert a.stderr_estimate == b.stderr_estimate
        assert a.richardson_delta == b.richardson_delta


def test_mc_convergence_rate():
    """Quadrupling the sample count halves the standard error within a
    factor 1.5."""
    rng = np.random.default_rng(4)
    good = 0
    for trial in range(10):
        n = int(rng.integers(3, 12))
        f = PiecewiseConstant1D(rng.standard_normal(n))
        base = OracleConfig(method="mc", samples=40_000, seed=trial)
        fine = replace(base, samples=160_000)
        e1 = oracle_eval(f, Kernel(KernelKind.BOX1D_WIDE, n), base).stderr_estimate
        e2 = oracle_eval(f, Kernel(KernelKind.BOX1D_WIDE, n), fine).stderr_estimate
        ratio = e1 / e2
        if 2.0 / 1.5 <= ratio <= 2.0 * 1.5:
            good += 1
    assert good >= 8


def test_gauss_mc_cross_agreement_on_singularity_free_pairs():
    # distance-2 pairs never touch, so the integrand is bounded and smooth
    cfg_g = OracleConfig(method="gauss", points_per_cell_axis=12)
    cfg_m = OracleConfig(method="mc", samples=400_000, seed=5)
    for n in (4, 9):
        kernel = Kernel(KernelKind.BOX1D_WIDE, n)
        vg, eg = geometric_factor_1d(2, n, kernel, cfg_g)
        vm, em = geometric_factor_1d(2, n, kernel, cfg_m, samples=400_000)
        scale = 3 * max(eg, em) + 1e-12 * abs(vg)
        assert abs(vg - vm) <= scale
    vg, eg = geometric_factor_2d((1, 1), 3, DISC, cfg_g)
    vm, em = geometric_factor_2d((1, 1), 3, DISC, cfg_m, samples=400_000)
    assert abs(vg - vm) <= 3 * max(eg, em) + 1e-12 * abs(vg)


def test_matched_adjacent_factor_is_one():
    for n in (2, 7, 32):
        v, err = geometric_factor_1d(1, n, Kernel(KernelKind.BOX1D, n),
                                     OracleConfig(method="gauss"))
        assert abs(v - 1.0) < 1e-12
    v, _ = geometric_factor_1d(2, 4, Kernel(KernelKind.BOX1D, 4),
                               OracleConfig(method="gauss"))
    assert v == 0.0


def test_report_error_channels():
    f = PiecewiseConstant1D([0.0, 1.0, 0.5])
    g = oracle_eval(f, Kernel(KernelKind.BOX1D_WIDE, 3),
                    OracleConfig(method="gauss"))
    assert g.stderr_estimate == 0.0 and g.richardson_delta >= 0.0
    m = oracle_eval(f, Kernel(KernelKind.BOX1D_WIDE, 3),
                    OracleConfig(method="mc", samples=20_000, seed=0))
    assert m.richardson_delta == 0.0 and m.stderr_estimate > 0.0


def test_exclusion_band_stability():
    """Halving the excluded band around the diagonal moves the spline value
    by less than 1e-3 relative."""
    f = Spline1D([0.0, 0.8, -0.3, 0.5, 0.1])
    kernel = Kernel(KernelKind.BOX1D, 4)
    base = OracleConfig(method="gauss", exclusion_band=1e-6)
    halved = replace(base, exclusion_band=5e-7)
    a = oracle_eval(f, kernel, base).value
    b = oracle_eval(f, kernel, halved).value
    assert abs(a - b) <= 1e-3 * abs(a)


def test_lipschitz_callback_1d():
    # f(x) = 2x has difference quotient exactly 2; the kernel mass inside
    # the domain is 1 - 1/(2n), so the value is 2 (1 - 1/(2n))
    kernel = Kernel(KernelKind.BOX1D, 8)
    expected = 2.0 * (1.0 - 1.0 / 16.0)
    got_g = oracle_eval(lambda x: 2 * x, kernel, OracleConfig(method="gauss"))
    got_m = oracle_eval(lambda x: 2 * x, kernel,
                        OracleConfig(method="mc", samples=400_000, seed=6))
    assert abs(got_g.value - expected) <= 1e-6
    assert abs(got_m.value - expected) <= 3 * got_m.stderr_estimate + 1e-3


def test_callback_2d_mc():
    kernel = Kernel(KernelKind.DISC2D, 32)
    got = oracle_eval(lambda x, y: x, kernel,
                      OracleConfig(method="mc", samples=400_000, seed=7))
    # slope-one ramp: the full-space value is K_{1,2} = 2/pi, reduced by the
    # boundary-truncated kernel mass (a few percent at this scale)
    assert abs(got.value - 2 / math.pi) < 0.05


@pytest.mark.parametrize("kind", [KernelKind.DISC2D, KernelKind.SQUARE2D])
def test_kernel_values_2d_match_kernel_eval(kind):
    # r = 1/32 is a power of two, so many points on the circle have
    # sqrt(u1^2 + u2^2) <= r while u1^2 + u2^2 > r^2
    kernel = Kernel(kind, 32)
    r = kernel.support_radius
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, 2.0 * math.pi, 4000)
    ulps = rng.integers(-2, 3, theta.size)
    circle_x = r * np.cos(theta)
    circle_x = circle_x + ulps * np.spacing(circle_x)
    near = [r, -r, np.nextafter(r, 0.0), np.nextafter(r, 1.0), 0.0]
    grid_x, grid_y = np.meshgrid(near, near)
    u1 = np.concatenate([circle_x, grid_x.ravel(), rng.uniform(-2 * r, 2 * r, 2000)])
    u2 = np.concatenate([r * np.sin(theta), grid_y.ravel(),
                         rng.uniform(-2 * r, 2 * r, 2000)])
    expected = [kernel_eval(kernel, (a, b)) for a, b in zip(u1, u2)]
    assert np.array_equal(_kernel_values_2d(kernel, u1, u2), expected)
    if kind is KernelKind.DISC2D:
        squared = u1 * u1 + u2 * u2 <= r * r
        assert np.any(squared != (np.sqrt(u1 * u1 + u2 * u2) <= r))


@pytest.mark.parametrize("f, kernel", [
    (PiecewiseConstant1D(np.linspace(0.0, 1.0, 12) ** 2), Kernel(KernelKind.BOX1D, 3)),
    (Image2D(np.arange(16.0).reshape(4, 4) % 3), Kernel(KernelKind.SQUARE2D, 8)),
])
def test_gauss_factors_are_shared_between_eval_and_stencil(f, kernel):
    # Gauss ignores the sample budget and the seed, so oracle_eval (budget
    # split over the offsets) and oracle_stencil (whole budget) share factors
    factor = _factor_1d if kernel.dim == 1 else _factor_2d
    cfg = OracleConfig(method="gauss", samples=50_000, seed=4)
    grid_n = f.coeffs.shape[0]
    value = oracle_eval(f, kernel, cfg).value
    misses = factor.cache_info().misses
    stencil = oracle_stencil(kernel, grid_n, cfg)
    assert factor.cache_info().misses == misses
    factor.cache_clear()
    assert oracle_stencil(kernel, grid_n, replace(cfg, seed=9)).terms == stencil.terms
    assert oracle_eval(f, kernel, cfg).value == value


def test_dimension_and_exponent_errors():
    with pytest.raises(ValueError):
        oracle_eval(PiecewiseConstant1D([0.0, 1.0]), DISC,
                    OracleConfig(method="gauss"))
    with pytest.raises(ValueError):
        oracle_eval(Image2D(np.eye(3)), BOX, OracleConfig(method="gauss"))
    with pytest.raises(ValueError):
        oracle_eval(PiecewiseConstant1D([0.0, 1.0]),
                    Kernel(KernelKind.BOX1D, 2),
                    OracleConfig(method="gauss", p=2.0))
    with pytest.raises(ValueError):
        oracle_eval(Image2D(np.eye(3)), DISC,
                    OracleConfig(method="gauss", p=3.0))
    with pytest.raises(TypeError):
        oracle_eval("not a function", BOX, OracleConfig(method="gauss"))


def test_fractional_exponent_pc():
    # p = 1.5 stays integrable for piecewise constants in 1D
    f = PiecewiseConstant1D([0.0, 1.0, 0.0])
    cfg_g = OracleConfig(method="gauss", p=1.5, points_per_cell_axis=16)
    cfg_m = OracleConfig(method="mc", p=1.5, samples=400_000, seed=8)
    a = oracle_eval(f, Kernel(KernelKind.BOX1D, 3), cfg_g).value
    b = oracle_eval(f, Kernel(KernelKind.BOX1D, 3), cfg_m).value
    assert a > 0
    assert abs(a - b) <= 5e-3 * a


def test_mismatched_2d_factor_against_direct_mc():
    """Kernel scale 2 on a 4x4 grid reaches distance-2 offsets; the cached
    factors must match a plain 4D Monte Carlo of the pair integral."""

    def direct_pair_mc(grid, kscale, offset, samples, seed):
        rng = np.random.default_rng(seed)
        h = 1.0 / grid
        r = 1.0 / kscale
        height = kscale ** 2 / math.pi
        x = rng.uniform(0, h, samples)
        y = rng.uniform(0, h, samples)
        w = rng.uniform(0, h, samples) + offset[0] * h
        z = rng.uniform(0, h, samples) + offset[1] * h
        dist = np.sqrt((x - w) ** 2 + (y - z) ** 2)
        vals = np.where(dist <= r, height / np.maximum(dist, 1e-300), 0.0)
        return 2.0 * float(vals.mean()) * h ** 4

    kernel = Kernel(KernelKind.DISC2D, 2)
    cfg = OracleConfig(method="gauss", points_per_cell_axis=10)
    for offset in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        got, _ = geometric_factor_2d(offset, 4, kernel, cfg)
        ref = direct_pair_mc(4, 2, offset, samples=600_000, seed=sum(offset))
        assert abs(got - ref) <= 5e-3 * ref
    got, _ = geometric_factor_2d((3, 0), 4, kernel, cfg)
    assert got == 0.0  # out of kernel reach


def test_fit_stencil_recovers_closed_forms():
    cfg = OracleConfig(method="mc", samples=300_000, seed=12)
    for kind in (KernelKind.DISC2D, KernelKind.SQUARE2D):
        for n in (2, 4):
            w = stencil_weights(kind, n)
            fit = fit_stencil(kind, n, cfg)
            assert abs(fit.lateral - w.lateral) <= 0.02 * w.lateral
            assert abs(fit.diagonal - w.diagonal) <= 0.02 * w.diagonal
    with pytest.raises(ValueError):
        fit_stencil(KernelKind.DISC2D, 9, cfg)
    with pytest.raises(ValueError):
        fit_stencil(KernelKind.BOX1D, 4, cfg)
