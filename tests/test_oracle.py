import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nltv import (
    EvalReport,
    Image2D,
    Kernel,
    KernelKind,
    OracleConfig,
    PiecewiseConstant1D,
    Spline1D,
    Stencil,
    eval_image,
    eval_spline,
    fit_stencil,
    kernel_eval,
    oracle_eval,
    stencil_weights,
)
from nltv import oracle, stencil
from nltv.oracle import (
    _factor,
    _factors,
    _gauss_on_panels,
    _gauss_rule,
    _kink_angles,
    _lattice_mc,
    _norm_outside,
    _panel_nodes,
    _polar_factor,
    _refine,
    _stream,
    _tent,
    geometric_factor_2d,
    oracle_terms,
)
from nltv.kernels import in_reach, offsets_within_reach

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
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            OracleConfig(p=p)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            OracleConfig(seed=seed)
    assert OracleConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


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
    """Quadrupling the sample count cuts the standard error by at least
    2 / 1.5, plain Monte Carlo's halving within a factor 1.5; the lattice
    rule is meant to beat it, so no upper bound."""
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
        if ratio >= 2.0 / 1.5:
            good += 1
    assert good >= 8


def _accuracy_case(case, seed):
    # (input, kernel, exact value, bound on the relative standard error)
    rng = np.random.default_rng(seed)
    if case == "spline-128":
        f = Spline1D(rng.uniform(0.0, 1.0, 129))
        return f, Kernel(KernelKind.BOX1D, 128), eval_spline(f), 1e-4
    if case == "image-16":
        f = Image2D(rng.uniform(0.0, 1.0, (16, 16)))
        return f, Kernel(KernelKind.DISC2D, 16), eval_image(f, KernelKind.DISC2D), 1e-4
    # f = x under the disc kernel of scale n: R = (2 - (pi + 2)/(3n) + 1/(3n^2)) / pi
    n = 32
    exact = (2.0 - (math.pi + 2.0) / (3 * n) + 1.0 / (3 * n * n)) / math.pi
    return (lambda x, y: x), Kernel(KernelKind.DISC2D, n), exact, 2e-4


@pytest.mark.parametrize("case", ["spline-128", "image-16", "x-disc-32"])
def test_mc_accuracy_at_two_million_samples(case):
    # the lattice rule's standard error at 2e6 samples, and its error within
    # 4 of it, on seeds 1-3
    for seed in (1, 2, 3):
        f, kernel, exact, bound = _accuracy_case(case, seed)
        report = oracle_eval(f, kernel,
                             OracleConfig(method="mc", samples=2_000_000, seed=seed))
        assert report.stderr_estimate <= bound * exact
        assert abs(report.value - exact) <= 4.0 * report.stderr_estimate


@pytest.mark.parametrize("method", ["gauss", "mc"])
def test_reports_refuse_non_finite_values(method):
    # the cell differences overflow to inf, and the spline's to inf and nan
    cfg = OracleConfig(method=method, seed=1)
    for f in (PiecewiseConstant1D([1.7e308, -1.7e308]), Spline1D([1.7e308, -1.7e308, 1.0])):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="malformed report"):
            oracle_eval(f, Kernel(KernelKind.BOX1D, 2), cfg)
    for fields in [(math.inf, 0.0, 0.0), (math.nan, 0.0, 0.0), (-1.0, 0.0, 0.0),
                   (1.0, math.nan, 0.0), (1.0, 0.0, math.inf)]:
        with pytest.raises(ValueError, match="malformed report"):
            EvalReport(*fields)
    assert EvalReport(0.0, 0.0, 0.0).value == 0.0


def test_gauss_mc_cross_agreement_on_singularity_free_pairs():
    # distance-2 pairs never touch, so the integrand is bounded and smooth
    cfg_g = OracleConfig(method="gauss", points_per_cell_axis=12)
    cfg_m = OracleConfig(method="mc", samples=400_000, seed=5)
    for n in (4, 9):
        kernel = Kernel(KernelKind.BOX1D_WIDE, n)
        vg, eg = _factors([(2,)], n, kernel, cfg_g)[(2,)]
        vm, em = _factors([(2,)], n, kernel, cfg_m)[(2,)]
        scale = 3 * max(eg, em) + 1e-12 * abs(vg)
        assert abs(vg - vm) <= scale
    vg, eg = geometric_factor_2d((1, 1), 3, DISC, cfg_g)
    vm, em = geometric_factor_2d((1, 1), 3, DISC, cfg_m)
    assert abs(vg - vm) <= 3 * max(eg, em) + 1e-12 * abs(vg)


def test_matched_adjacent_factor_is_one():
    cfg = OracleConfig(method="gauss")
    for n in (2, 7, 32):
        v, err = _factors([(1,)], n, Kernel(KernelKind.BOX1D, n), cfg)[(1,)]
        assert abs(v - 1.0) < 1e-12
    v, _ = _factors([(2,)], 4, Kernel(KernelKind.BOX1D, 4), cfg)[(2,)]
    assert v == 0.0


def test_report_error_channels():
    f = PiecewiseConstant1D([0.0, 1.0, 0.5])
    g = oracle_eval(f, Kernel(KernelKind.BOX1D_WIDE, 3),
                    OracleConfig(method="gauss"))
    assert g.stderr_estimate == 0.0 and g.richardson_delta >= 0.0
    m = oracle_eval(f, Kernel(KernelKind.BOX1D_WIDE, 3),
                    OracleConfig(method="mc", samples=20_000, seed=0))
    assert m.richardson_delta == 0.0 and m.stderr_estimate > 0.0


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_gauss_spline_curves_converge_to_rounding(p):
    """Uniform-random splines: the Gauss curve lies within 1e-13 relative of
    the closed form at p = 1 and of a 48-point rule at p = 2, and its
    channel reads below that too."""
    for n in (2, 16, 128):
        kernel = Kernel(KernelKind.BOX1D, n)
        for seed in (1, 2, 3):
            f = Spline1D(np.random.default_rng(seed).uniform(0.0, 1.0, n + 1))
            report = oracle_eval(f, kernel, OracleConfig(method="gauss", p=p))
            ref = eval_spline(f) if p == 1.0 else oracle_eval(
                f, kernel, OracleConfig(method="gauss", p=p, points_per_cell_axis=48)).value
            assert abs(report.value - ref) <= 1e-13 * ref
            assert report.richardson_delta <= 1e-13 * ref


def _sin7_value(kernel) -> float:
    """The p = 1 value of sin(7x) under a 1D box kernel, by scipy's adaptive
    quadrature over u of its reduced form: sin(7x) - sin(7(x - u)) is
    2 sin(7u/2) cos(7x - 7u/2), and |cos| has a closed-form antiderivative."""
    from scipy.integrate import quad

    def antiderivative(t):
        k = math.floor(t / math.pi + 0.5)
        return 2 * k + (-1) ** k * math.sin(t)

    def over_u(u):
        inner = antiderivative(7.0 - 3.5 * u) - antiderivative(3.5 * u)
        return 2.0 * abs(math.sin(3.5 * u)) / u * inner / 7.0

    value, _ = quad(over_u, 0.0, kernel.support_radius, epsabs=0.0, epsrel=1e-13)
    return 2.0 * kernel.height * value


@pytest.mark.parametrize("case", ["step-g8", "step-g16", "sin7"])
def test_gauss_curve_channel_tracks_its_error(case):
    # the x panels of a callable are not split where the difference changes
    # sign or jumps, so these errors come from the x rule; the channel must
    # cover them, and within a factor 10
    if case == "sin7":
        kernel = Kernel(KernelKind.BOX1D, 32)
        f, g, exact = (lambda x: np.sin(7.0 * x)), 8, _sin7_value(kernel)
    else:
        # a unit jump farther than r = 1/8 from both ends: 2 height r = 1
        kernel = Kernel(KernelKind.BOX1D, 8)
        f, g, exact = (lambda x: (x > 0.37).astype(float)), int(case[6:]), 1.0
    report = oracle_eval(f, kernel, OracleConfig(method="gauss", points_per_cell_axis=g))
    error = abs(report.value - exact)
    assert error <= report.richardson_delta <= 10.0 * error


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
    # r = 2 > 1, but no two points of (0, 1) lie 1 apart: F(u) / u = 2 (1 - u)
    # integrates to 1 over (0, 1), so the value is 2 height
    wide = Kernel(KernelKind.BOX1D_WIDE, 1)
    got_g = oracle_eval(lambda x: 2 * x, wide, OracleConfig(method="gauss"))
    assert abs(got_g.value - 2.0 * wide.height) <= 1e-14


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
    norm, outside = _norm_outside(kernel)((u1, u2))
    assert np.array_equal(norm, np.sqrt(u1 * u1 + u2 * u2))
    assert np.array_equal(np.where(outside, 0.0, kernel.height), expected)
    if kind is KernelKind.DISC2D:
        squared = u1 * u1 + u2 * u2 <= r * r
        assert np.any(squared != (np.sqrt(u1 * u1 + u2 * u2) <= r))


@pytest.mark.parametrize("f, kernel", [
    (PiecewiseConstant1D(np.linspace(0.0, 1.0, 12) ** 2), Kernel(KernelKind.BOX1D, 3)),
    (Image2D(np.arange(16.0).reshape(4, 4) % 3), Kernel(KernelKind.SQUARE2D, 8)),
])
def test_gauss_factors_are_shared_between_eval_and_stencil(f, kernel):
    # Gauss ignores the sample budget and the seed, so oracle_eval and
    # oracle_terms share factors though they split the budget over
    # different numbers of offsets
    cfg = OracleConfig(method="gauss", samples=50_000, seed=4)
    grid_n = f.coeffs.shape[0]
    value = oracle_eval(f, kernel, cfg).value
    misses = _factor.cache_info().misses
    terms = oracle_terms(kernel, grid_n, cfg)
    assert _factor.cache_info().misses == misses
    _factor.cache_clear()
    assert oracle_terms(kernel, grid_n, replace(cfg, seed=9)) == terms
    assert oracle_eval(f, kernel, cfg).value == value


def test_gauss_rule_is_shared_and_read_only():
    nodes, weights = _gauss_rule(8)
    assert _gauss_rule(8)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


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
    with pytest.raises(ValueError, match="1D input needs a 1D kernel"):
        oracle_eval(Spline1D([0.0, 1.0, 0.0]), DISC, OracleConfig(method="gauss"))
    with pytest.raises(ValueError, match="use Monte Carlo"):
        oracle_eval(lambda x, y: x, DISC, OracleConfig(method="gauss"))
    with pytest.raises(ValueError, match="offset must be nonzero"):
        geometric_factor_2d((0, 0), 8, DISC, OracleConfig(method="gauss"))
    # a pair factor needs a kernel of the offset's dimension
    cfg = OracleConfig(method="gauss")
    with pytest.raises(ValueError, match="kernel"):
        _factors([(1,)], 8, Kernel(KernelKind.DISC2D, 8), cfg)
    for method in ("gauss", "mc"):
        with pytest.raises(ValueError, match="kernel"):
            geometric_factor_2d((1, 0), 8, Kernel(KernelKind.BOX1D, 8),
                                OracleConfig(method=method))


def test_monte_carlo_refuses_the_face_touching_2d_pair_from_p_2():
    # the (1, 0) integrand grows like |u|^(1-p): from p = 2 on its variance
    # is infinite and the shift spread no error bar; Gauss and the (1, 1)
    # pair still evaluate there
    for p in (2.0, 2.5):
        mc = OracleConfig(method="mc", p=p)
        for offset in [(1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="infinite variance"):
                geometric_factor_2d(offset, 4, DISC, mc)
        with pytest.raises(ValueError, match="infinite variance"):
            oracle_eval(Image2D(np.eye(4)), DISC, mc)
        assert geometric_factor_2d((1, 1), 4, DISC, mc)[0] > 0.0
        assert geometric_factor_2d((1, 0), 4, DISC, OracleConfig(method="gauss", p=p))[0] > 0.0
    assert geometric_factor_2d((1, 0), 4, DISC, OracleConfig(method="mc", p=1.9))[0] > 0.0


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


def _hex_pair(result):
    return tuple(float(v).hex() for v in result)


# The one-point-at-a-time Gauss code that the array-at-a-time panel rule
# replaced, kept as references: the panel rule, the kink angles with their
# reflections written out, the per-theta-node polar factor and the spline and
# callable band quadrature with its per-panel root split.


def _old_gauss_on_panels(fn, edges, g):
    nodes, weights = _gauss_rule(g)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    pts = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return float(np.sum(0.5 * (hi - lo) * weights[None, :] * vals))


def _old_kink_angles(knots_x, knots_y, kernel):
    r = kernel.support_radius
    cands = {0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi,
             1.25 * math.pi, 1.5 * math.pi, 1.75 * math.pi, 2.0 * math.pi}
    axis_vals = [abs(c) for c in knots_x + knots_y if c != 0.0]
    for c in axis_vals:
        if c < r:
            t = math.acos(c / r)
            for base in (t, math.pi - t, math.pi + t, 2 * math.pi - t):
                cands.add(base % (2 * math.pi))
            t = math.asin(min(c / r, 1.0))
            for base in (t, math.pi - t, math.pi + t, 2 * math.pi - t):
                cands.add(base % (2 * math.pi))
    for cx in [abs(c) for c in knots_x if c != 0.0]:
        for cy in [abs(c) for c in knots_y if c != 0.0]:
            t = math.atan2(cy, cx)
            for base in (t, math.pi - t, math.pi + t, 2 * math.pi - t):
                cands.add(base % (2 * math.pi))
    cands.add(2.0 * math.pi)
    return np.array(sorted(cands))


def _square_kink_angles(knots_x, knots_y, kernel):
    # the square's kink set: _old_kink_angles with the knot lines x = c and
    # y = c crossing the sides |y| = r and |x| = r, at (c, r) and (r, c), in
    # place of the circle
    r = kernel.support_radius
    cands = {0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi,
             1.25 * math.pi, 1.5 * math.pi, 1.75 * math.pi, 2.0 * math.pi}
    axis_vals = [abs(c) for c in knots_x + knots_y if c != 0.0]
    for c in axis_vals:
        if c < r:
            for t in (math.atan2(r, c), math.atan2(c, r)):
                for base in (t, math.pi - t, math.pi + t, 2 * math.pi - t):
                    cands.add(base % (2 * math.pi))
    for cx in [abs(c) for c in knots_x if c != 0.0]:
        for cy in [abs(c) for c in knots_y if c != 0.0]:
            t = math.atan2(cy, cx)
            for base in (t, math.pi - t, math.pi + t, 2 * math.pi - t):
                cands.add(base % (2 * math.pi))
    cands.add(2.0 * math.pi)
    return np.array(sorted(cands))


def _reference_kink_angles(knots_x, knots_y, kernel):
    if kernel.kind is KernelKind.SQUARE2D:
        return _square_kink_angles(knots_x, knots_y, kernel)
    return _old_kink_angles(knots_x, knots_y, kernel)


def _old_polar_factor(dx, dy, h, kernel, g, theta_split, p):
    knots_x = [(dx - 1) * h, dx * h, (dx + 1) * h]
    knots_y = [(dy - 1) * h, dy * h, (dy + 1) * h]
    thetas = _reference_kink_angles(knots_x, knots_y, kernel)
    for _ in range(theta_split):
        thetas = _refine(thetas)
    nodes, weights = _gauss_rule(g)
    total = 0.0
    for a, b in zip(thetas[:-1], thetas[1:]):
        if b - a <= 1e-14:
            continue
        th = 0.5 * (b + a) + 0.5 * (b - a) * nodes
        wt = 0.5 * (b - a) * weights
        for theta, w_theta in zip(th, wt):
            cap = kernel.support_radius
            if kernel.kind is KernelKind.SQUARE2D:
                cap /= max(abs(math.cos(theta)), abs(math.sin(theta)))
            c, s = math.cos(theta), math.sin(theta)
            breaks = {cap}
            for kx in knots_x:
                if c != 0.0 and 0.0 < kx / c < cap:
                    breaks.add(kx / c)
            for ky in knots_y:
                if s != 0.0 and 0.0 < ky / s < cap:
                    breaks.add(ky / s)
            edges = np.array(sorted({0.0} | breaks))

            def radial(rho, c=c, s=s):
                rr = np.maximum(rho, 1e-300)
                return (2.0 * kernel.height * _tent(rho * c, dx, h)
                        * _tent(rho * s, dy, h) * rr ** (1.0 - p))

            total += w_theta * _old_gauss_on_panels(radial, edges, g)
    return total


def _panel_loop_polar_factor(dx, dy, h, kernel, g, theta_split, p):
    # the polar factor one theta panel at a time: each panel one array pass
    # over its g angles
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
        rho = np.column_stack([knots_x / c[:, None], knots_y / s[:, None]])
        rho = np.where((rho > 0.0) & (rho < cap[:, None]), rho, cap[:, None])
        edges = np.sort(np.column_stack([np.zeros(g), cap, rho]), axis=1)
        pts, wts = _panel_nodes(edges, g)
        vals = (2.0 * kernel.height * _tent(pts * c[:, None, None], dx, h)
                * _tent(pts * s[:, None, None], dy, h) * pts ** (1.0 - p))
        total += float(wt @ np.sum(wts * vals, axis=(1, 2)))
    return total


@settings(max_examples=200, deadline=None)
@given(edges=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=12, unique=True),
       g=st.integers(2, 64))
def test_panel_rule_is_bit_identical_to_the_reference(edges, g):
    # the 1D factors integrate through this rule alone
    edges = np.sort(edges)

    def fn(x):
        return x * x * x - 2.0 * x + np.abs(x - 1.0)

    assert (_gauss_on_panels(fn, edges, g).hex()
            == _old_gauss_on_panels(fn, edges, g).hex())


@pytest.mark.parametrize("kind", [KernelKind.DISC2D, KernelKind.SQUARE2D])
def test_kink_angles_are_byte_identical_to_the_reference(kind):
    for kscale, grid in [(3, 4), (4, 8), (8, 16), (2, 32)]:
        kernel, h = Kernel(kind, kscale), 1.0 / grid
        for dx in range(5):
            for dy in range(dx + 1):
                knots_x = [(dx - 1) * h, dx * h, (dx + 1) * h]
                knots_y = [(dy - 1) * h, dy * h, (dy + 1) * h]
                assert (_kink_angles(knots_x, knots_y, kernel).tobytes()
                        == _reference_kink_angles(knots_x, knots_y, kernel).tobytes())


@pytest.mark.parametrize("kind", [KernelKind.DISC2D, KernelKind.SQUARE2D])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_polar_factor_matches_the_per_node_reference(kind, p):
    # touching offsets (1, 0) and (1, 1) carry the rho^(1-p) singularity;
    # (2, 1) on the finer grid sees the kernel cap cut through its cells
    for dx, dy, grid, kscale in [(1, 0, 4, 3), (1, 1, 4, 3), (2, 1, 8, 4)]:
        kernel = Kernel(kind, kscale)
        for g in (8, 12):
            for theta_split in (2, 3):
                args = (dx, dy, 1.0 / grid, kernel, g, theta_split, p)
                ref = _old_polar_factor(*args)
                assert abs(_polar_factor(*args) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("kind", [KernelKind.DISC2D, KernelKind.SQUARE2D])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5])
def test_polar_factor_blocks_are_bit_identical_to_the_panel_loop(monkeypatch, kind, p):
    # every canonical offset in reach on two grids, several blocks of theta
    # panels each (the last one partial); bounds of 8 and 64 nodes a pass lie
    # below one panel's 7 g^2, so each block then holds one panel (checked
    # on the coarser theta split, as the finer one only doubles the panels)
    bounds = {2: (stencil.CHUNK, 8, 64), 3: (stencil.CHUNK,)}
    for grid, kscale in [(4, 3), (8, 4)]:
        kernel = Kernel(kind, kscale)
        offsets = [off for off in offsets_within_reach(kernel, grid) if off[0] >= off[1] >= 0]
        for dx, dy in offsets:
            for g in (8, 12):
                for theta_split in (2, 3):
                    args = (dx, dy, 1.0 / grid, kernel, g, theta_split, p)
                    ref = _panel_loop_polar_factor(*args).hex()
                    for chunk in bounds[theta_split]:
                        monkeypatch.setattr(stencil, "CHUNK", chunk)
                        assert _polar_factor(*args).hex() == ref


# The square kernel's support is a sup-norm ball: it reaches the cell pairs
# whose sup-norm gap is below r, and its boundary crosses the knot lines
# |x| = c and |y| = c at (c, r) and (r, c), where the circle's crossings lie
# elsewhere.


@pytest.mark.parametrize("p, dx, dy, grid, scale", [
    (1.0, 1, 0, 4, 3), (1.0, 1, 1, 4, 3), (2.0, 1, 0, 4, 3), (2.0, 1, 1, 4, 3),
    (1.0, 4, 4, 16, 5),
])
def test_square_gauss_factor_matches_a_converged_reference(p, dx, dy, grid, scale):
    # p = 1 and p = 2 leave the angular rule as the only error source; the
    # reference takes 48 points a panel and six halvings of the theta panels
    kernel = Kernel(KernelKind.SQUARE2D, scale)
    got, _ = geometric_factor_2d((dx, dy), grid, kernel, OracleConfig(method="gauss", p=p))
    ref = _polar_factor(dx, dy, 1.0 / grid, kernel, 48, 6, p)
    assert abs(got - ref) <= 1e-13 * ref


def test_square_factor_of_a_far_corner_matches_a_direct_monte_carlo():
    # x in the cell at the origin and y in the cell at (4, 4) on 12^2: the
    # pair's sup-norm gap 3h lies below r = 4h. The factor counts both
    # orientations of the pair, so it is twice the integral of
    # phi(x - y) / |x - y| over the two cells.
    h, kernel = 1.0 / 12, Kernel(KernelKind.SQUARE2D, 3)
    rng = np.random.default_rng(11)
    vals = []
    for _ in range(8):
        u = rng.uniform(0.0, h, (250_000, 2)) + 4 * h - rng.uniform(0.0, h, (250_000, 2))
        inside = np.abs(u).max(axis=1) <= kernel.support_radius
        vals.append(np.where(inside, 2.0 * kernel.height * h ** 4 / np.hypot(*u.T), 0.0))
    vals = np.concatenate(vals)
    mean, stderr = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
    got, _ = geometric_factor_2d((4, 4), 12, kernel, OracleConfig(method="gauss"))
    assert got > 0.0 and abs(got - mean) <= 3.0 * stderr


@pytest.mark.parametrize("grid, scale", [(12, 3), (64, 4)])
def test_square_oracle_eval_sums_every_offset_of_the_bounding_box(grid, scale):
    # every offset of the kernel's bounding box, at most r/h + 1 cells on
    # each axis, with its polar factor taken without the reach rule: the
    # offsets out of reach add 0
    kernel = Kernel(KernelKind.SQUARE2D, scale)
    a = np.random.default_rng(grid).uniform(size=(grid, grid))
    cfg = OracleConfig(method="gauss")
    box = min(grid // scale + 1, grid - 1)
    factors = {}
    want = 0.0
    for dx in range(box + 1):
        for dy in range(-box, box + 1):
            if dx > 0 or dy > 0:
                key = (max(dx, abs(dy)), min(dx, abs(dy)))
                if key not in factors:
                    factors[key] = _polar_factor(*key, 1.0 / grid, kernel,
                                                 cfg.points_per_cell_axis, 3, cfg.p)
                want += factors[key] * Stencil(a.shape, [((dx, dy), 1.0)]).value(a, cfg.p)
    assert abs(oracle_eval(Image2D(a), kernel, cfg).value - want) <= 1e-12 * want


@st.composite
def _reach_cases(draw):
    # a 2D kernel, a grid and a canonical offset (dx, dy), dx >= dy >= 0, on it
    grid = draw(st.integers(2, 12))
    dx = draw(st.integers(1, grid - 1))
    return (Kernel(draw(st.sampled_from([KernelKind.DISC2D, KernelKind.SQUARE2D])),
                   draw(st.integers(1, 6))), grid, (dx, draw(st.integers(0, dx))))


@settings(max_examples=300, deadline=None)
@given(case=_reach_cases())
@example(case=(Kernel(KernelKind.SQUARE2D, 3), 12, (4, 4)))
@example(case=(Kernel(KernelKind.SQUARE2D, 1), 7, (6, 6)))
def test_an_offset_is_in_reach_exactly_when_its_factor_is_positive(case):
    # the p = 1 polar factor, without the reach rule, is 0 exactly where no
    # pair of cells at the offset meets the support
    kernel, grid, offset = case
    factor = _polar_factor(*offset, 1.0 / grid, kernel, 8, 3, 1.0)
    assert in_reach(kernel, grid, offset) == (factor > 0.0)


# The lattice rule written out as a sequential loop over shifts and chunks,
# with the out-of-place integrands of the singular 1D factor, the curve
# sampler and the 2D callable sampler, kept as references.


def _sequential_lattice(fn, axes, nsamples, rng):
    # N the largest power of two with 16 N <= nsamples, a the odd integer
    # nearest N / phi, z_j = a^j mod N, and 16 shifts of 53-bit integers;
    # point k on axis j is lo + frac((k z_j mod N) / N + D_j) (hi - lo), the
    # fraction taken exactly in units of 2^-53
    n = 1
    while 32 * n <= nsamples:
        n *= 2
    a = min(range(1, n + 2, 2), key=lambda c: abs(c - 2.0 * n / (1.0 + math.sqrt(5.0))))
    shifts = rng.integers(2 ** 53, size=(16, len(axes))).tolist()
    chunk = min(n, stencil.CHUNK)
    sums = []
    for shift in shifts:
        total = 0.0
        for k0 in range(0, n, chunk):
            k = np.arange(k0, k0 + chunk)
            points = []
            for j, ((lo, hi), d) in enumerate(zip(axes, shift)):
                frac = (k * (a ** j % n) % n * (2 ** 53 // n) + d) % 2 ** 53
                points.append(lo + frac / 2 ** 53 * (hi - lo))
            total += float(fn(*points).sum())
        sums.append(total)
    means = np.array(sums) / n
    vol = math.prod(hi - lo for lo, hi in axes)
    return vol * float(means.mean()), vol * float(means.std(ddof=1)) / 4.0


def _old_singular_factor_1d(grid_m, kernel, nsamples, seed, p):
    h = 1.0 / grid_m
    hi = min(2 * h, kernel.support_radius)
    split = h if h < hi else hi
    q = 2.0 - p

    def integrand(u):
        uu = np.maximum(u, 1e-300)
        return 2.0 * kernel.height * np.maximum(h - np.abs(u - h), 0.0) / uu ** p

    def first(v):
        v = np.maximum(v, 1e-300)
        u = split * v ** (1.0 / q)
        return integrand(u) * (split / q) * v ** (1.0 / q - 1.0)

    rng = _stream(seed, 1)
    v1, e1 = _sequential_lattice(first, [(0.0, 1.0)], nsamples // 2, rng)
    v2, e2 = (0.0, 0.0)
    if split < hi:
        v2, e2 = _sequential_lattice(integrand, [(split, hi)], nsamples // 2, rng)
    return v1 + v2, math.hypot(e1, e2)


def _old_curve_mc_1d(func, kernel, cfg):
    r = kernel.support_radius

    def integrand(u, x):
        y = x - u
        ok = (y > 0.0) & (y < 1.0) & (u != 0.0)
        uu = np.where(ok, np.abs(u), 1.0)
        return np.where(ok, kernel.height * np.abs(func(x) - func(np.clip(y, 0.0, 1.0)))
                        ** cfg.p / uu ** cfg.p, 0.0)

    return _sequential_lattice(integrand, [(-r, r), (0, 1)], cfg.samples,
                               _stream(cfg.seed, 0))


def _old_callable_mc_2d(func, kernel, cfg):
    r = kernel.support_radius

    def integrand(u1, u2, x1, x2):
        y1, y2 = x1 - u1, x2 - u2
        ok = (y1 > 0) & (y1 < 1) & (y2 > 0) & (y2 < 1)
        norm = np.sqrt(u1 * u1 + u2 * u2)
        ok &= norm > 0
        if kernel.kind is KernelKind.SQUARE2D:
            inside = np.maximum(np.abs(u1), np.abs(u2)) <= r
        else:
            inside = np.sqrt(u1 * u1 + u2 * u2) <= r
        phi = np.where(inside, kernel.height, 0.0)
        fx = func(x1, x2)
        fy = func(np.clip(y1, 0, 1), np.clip(y2, 0, 1))
        safe = np.where(ok, norm, 1.0)
        return np.where(ok, phi * np.abs(fx - fy) ** cfg.p / safe ** cfg.p, 0.0)

    return _sequential_lattice(integrand, [(-r, r), (-r, r), (0, 1), (0, 1)], cfg.samples,
                               _stream(cfg.seed, 0))


@pytest.fixture(params=[1, 2, 4], ids=lambda c: f"{c}cpu")
def cpus(request, monkeypatch):
    """The number of CPUs the sampler sees, and so its thread count: every
    budget is spread over threads, however few points its shifts have."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    monkeypatch.setattr(oracle, "_THREAD_POINTS", 0)
    return request.param


def _in_place(fn):
    # an integrand that overwrites the arrays handed to it
    def wrapped(*arrays):
        arrays[0][...] = fn(*arrays)
        for arr in arrays[1:]:
            arr[...] = np.nan
        return arrays[0]

    return wrapped


def _cos_sum(*arrays):
    return np.cos(sum(k * a for k, a in enumerate(arrays, start=1)))


@pytest.mark.parametrize("axes, nsamples, start", [
    # one axis: lattices of 4 points, from a budget that is and one that is
    # not a multiple of 16 N, and of 1 point
    ([(-0.3, 0.9)], 16 * 7 + 3, 0),
    ([(-0.3, 0.9)], 16 * 7, 5),
    ([(0.1, 0.7)], 16, 1),
    # two axes: 8 points; four axes: 1 and 32 points
    ([(0.0, 0.5), (-1.0, 2.0)], 16 * 9, 3),
    ([(0.0, 1.0), (0, 1), (-0.1, 0.1), (-0.1, 0.1)], 21, 2),
    ([(0, 1), (0, 1), (-0.25, 0.25), (-0.25, 0.25)], 1001, 0),
    # two chunks of 32,768 points a shift
    ([(0.0, 1.0), (-0.5, 0.5)], 16 * (1 << 16) + 5, 0),
])
@pytest.mark.parametrize("in_place", [False, True])
def test_threaded_sampler_is_bit_identical_to_the_sequential_loop(cpus, axes, nsamples,
                                                                  start, in_place):
    # the sampler draws its shifts from where the stream stands, as the
    # second piece of the singular 1D factor does after the first
    fn = _in_place(_cos_sum) if in_place else _cos_sum
    for seed, task in [(0, 0), (7, 1024 * 2 + 1), (2 ** 63, 5)]:
        rng, ref = _stream(seed, task), _stream(seed, task)
        rng.random(start)
        ref.random(start)
        assert (_hex_pair(_lattice_mc(fn, axes, nsamples, rng))
                == _hex_pair(_sequential_lattice(fn, axes, nsamples, ref)))


@pytest.mark.parametrize("p", [1.5, 1.8])
def test_singular_factor_pieces_are_bit_identical_to_the_sequential_loop(cpus, p):
    # the second piece draws its shifts from the one stream after the first
    for nsamples in (50_000, 32 * 3, 32 * 1001):
        for grid_m, kscale in [(8, 4), (8, 16)]:
            kernel = Kernel(KernelKind.BOX1D, kscale)
            got = _factor.__wrapped__((1,), grid_m, kernel.kind, kernel.n, "mc", 8,
                                      nsamples, 3, p)
            assert (_hex_pair(got)
                    == _hex_pair(_old_singular_factor_1d(grid_m, kernel, nsamples, 3, p)))


_CURVES = (lambda x: x, lambda x: 0.5, lambda x: np.sin(3 * x),
           Spline1D(np.random.default_rng(1).uniform(0.0, 1.0, 9)))


def _assert_mc_callables_match_the_sequential_loop(p, curves):
    kernel_1d = Kernel(KernelKind.BOX1D, 4)
    cfg = OracleConfig(method="mc", samples=16 * 2501, seed=6, p=p)
    for func in curves:
        report = oracle_eval(func, kernel_1d, cfg)
        ref = _old_curve_mc_1d(func, kernel_1d, cfg)
        assert _hex_pair((report.value, report.stderr_estimate)) == _hex_pair(ref)
    cfg = replace(cfg, samples=30_001)
    for kernel in (Kernel(KernelKind.DISC2D, 4), Kernel(KernelKind.SQUARE2D, 8)):
        for func in (lambda x, y: x, lambda x, y: y, lambda x, y: 0.25,
                     lambda x, y: np.sin(3 * x) + y * y):
            report = oracle_eval(func, kernel, cfg)
            ref = _old_callable_mc_2d(func, kernel, cfg)
            assert _hex_pair((report.value, report.stderr_estimate)) == _hex_pair(ref)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_mc_callables_are_bit_identical_to_the_sequential_loop(cpus, p):
    # each shift is one chunk here, so even a callable that is not
    # element-wise (a Python scalar of the whole chunk) sees the same arrays
    _assert_mc_callables_match_the_sequential_loop(
        p, (*_CURVES, lambda x: float(x.max())))


def test_small_budgets_run_on_the_calling_thread(monkeypatch):
    callers = set()
    main = threading.get_ident()

    def record(x):
        callers.add(threading.get_ident())
        return x

    # shifts of half the threshold on four CPUs and of many chunks on one run
    # on the calling thread; shifts at the threshold on 64 CPUs take at most
    # one thread per shift
    for cpus, points in [(4, oracle._THREAD_POINTS // 2), (1, 1 << 20),
                         (64, oracle._THREAD_POINTS)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        callers.clear()
        _lattice_mc(record, [(0.0, 1.0)], 16 * points, _stream(1, 2))
        if cpus == 64:
            assert main not in callers and len(callers) <= oracle._SHIFTS
        else:
            assert callers == {main}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

    def func(x):
        callers.add(threading.get_ident())
        return np.sin(3.0 * x)

    def func_2d(x, y):
        callers.add(threading.get_ident())
        return x * y

    # a curve's lattice has N points, 16 N at most the budget: the default
    # budget, the last budget below the threshold and the first one at it
    square = Kernel(KernelKind.SQUARE2D, 8)
    first = 16 * oracle._THREAD_POINTS
    for f, kernel, samples, on_main in [
            (func, BOX, OracleConfig().samples, True),
            (func, BOX, first - 1, True),
            (func, BOX, first, False),
            (func_2d, square, OracleConfig().samples, True),
            (func_2d, square, first - 1, True),
            (func_2d, square, first, False)]:
        callers.clear()
        oracle_eval(f, kernel, OracleConfig(method="mc", samples=samples, seed=1))
        assert (callers == {main}) if on_main else (main not in callers)


def test_a_callable_that_runs_the_oracle_gets_other_arrays(cpus):
    # the inner evaluation runs between the outer integrand's making of its
    # norm and masks and their use, and on one CPU on the same thread
    square = Kernel(KernelKind.SQUARE2D, 8)
    inner_cfg = OracleConfig(method="mc", samples=16_000, seed=2)

    def inner():
        return oracle_eval(lambda x, y: x * y, square, inner_cfg).value

    value = inner()
    cfg = OracleConfig(method="mc", samples=30_001, seed=6)
    nested = oracle_eval(lambda x, y: np.sin(3 * x) + inner() * y, square, cfg)
    flat = oracle_eval(lambda x, y: np.sin(3 * x) + value * y, square, cfg)
    assert (_hex_pair((nested.value, nested.stderr_estimate))
            == _hex_pair((flat.value, flat.stderr_estimate)))


@pytest.mark.parametrize("per", [5, 8, 9, 21], ids=lambda n: f"per{n}")
@pytest.mark.parametrize("axes", [
    [(-0.3, 0.9)],
    [(0.0, 0.5), (-1.0, 2.0)],
    [(0.0, 1.0), (0, 1), (-0.1, 0.1), (-0.1, 0.1)],
], ids=["1axis", "2axes", "4axes"])
@pytest.mark.parametrize("in_place", [False, True])
def test_cut_sampler_is_bit_identical_to_the_sequential_loop(cpus, monkeypatch, axes,
                                                             per, in_place):
    # chunks of 8 points: budgets of 16 x 10, 16, 18 and 42 points a shift
    # give shifts of 8, 16, 16 and 32 points, one, two, two and four chunks
    monkeypatch.setattr(stencil, "CHUNK", 8)
    fn = _in_place(_cos_sum) if in_place else _cos_sum
    for seed, task in [(0, 0), (7, 1024 * 2 + 1), (2 ** 63, 5)]:
        assert (_hex_pair(_lattice_mc(fn, axes, 32 * per, _stream(seed, task)))
                == _hex_pair(_sequential_lattice(fn, axes, 32 * per, _stream(seed, task))))


@pytest.mark.parametrize("per", [8, 9, 40], ids=lambda n: f"per{n}")
def test_sampler_builds_one_stream_per_run(cpus, monkeypatch, per):
    # one stream per task, however many chunks and threads its shifts take:
    # the two pieces of the singular 1D factor share theirs
    monkeypatch.setattr(stencil, "CHUNK", 8)
    built = []
    monkeypatch.setattr(oracle, "_stream", lambda *args: built.append(args) or _stream(*args))
    for evaluate in [
            lambda: _factor.__wrapped__((1,), 8, KernelKind.BOX1D, 4, "mc", 8, 32 * per, 3, 1.5),
            lambda: _factor.__wrapped__((2, 1), 6, KernelKind.DISC2D, 3, "mc", 8, 32 * per, 3,
                                        1.0),
            lambda: oracle._curve_mc(np.sin, BOX, replace(_MC_CFG, samples=10_000))]:
        built.clear()
        evaluate()
        assert len(built) == 1


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_cut_factors_and_callables_are_bit_identical_to_the_sequential_loop(
        cpus, monkeypatch, p):
    # chunks of 256 points cut the singular factor's shifts of 512 and 1,024
    # points, and leave those of 2, and cut the 1D curves' shifts of 2,048
    # points and the 2D callables' of 1,024
    monkeypatch.setattr(stencil, "CHUNK", 256)
    if p > 1.0:
        test_singular_factor_pieces_are_bit_identical_to_the_sequential_loop(cpus, p)
    _assert_mc_callables_match_the_sequential_loop(p, _CURVES)


class _NoShift:
    # a stream stand-in whose shifts are all zero: the sampler then sums the
    # unshifted lattice
    @staticmethod
    def integers(high, size):
        return np.zeros(size, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(nsamples=st.integers(16, 300_000), dim=st.integers(1, 4),
       seed=st.integers(0, 2 ** 64 - 1))
def test_lattice_axes_are_permutations_and_use_at_most_the_budget(nsamples, dim, seed):
    seen = []

    def record(*arrays):
        seen.append(np.array(arrays))
        return np.zeros(arrays[0].size)

    _lattice_mc(record, [(0.0, 1.0)] * dim, nsamples, _NoShift())
    points = np.concatenate(seen, axis=1)
    n = points.shape[1] // 16
    assert nsamples / 2 < 16 * n <= nsamples
    for axis in points[:, :n]:
        assert np.array_equal(np.sort(axis), np.arange(n) / n)
    assert np.array_equal(points, np.tile(points[:, :n], 16))
    # the shifted points lie in [0, 1) too
    seen.clear()
    _lattice_mc(record, [(0.0, 1.0)] * dim, nsamples, _stream(seed, 0))
    points = np.concatenate(seen, axis=1)
    assert points.shape[1] == 16 * n and np.all((points >= 0.0) & (points < 1.0))


def _eval_image(scale):
    image = Image2D(np.random.default_rng(0).uniform(0.0, 1.0, (16, 16)))
    return lambda cfg: oracle_eval(image, Kernel(KernelKind.DISC2D, scale), cfg)


@pytest.mark.parametrize("evaluate, samples, tasks, points", [
    # a 16x16 image, disc kernel at scale 1: 122 pair offsets at 1,000
    # samples each, the floor: 512 points apiece
    pytest.param(_eval_image(1), 10_000, 122, 62_464, id="1-10000-122-62464"),
    # at scale 2: 39 offsets at 2,564 samples each: 2,048 points apiece
    pytest.param(_eval_image(2), 100_000, 39, 79_872, id="2-100000-39-79872"),
    # the terms of the disc kernel at scale 2 on an 8x8 grid: 38 offsets,
    # 13 canonical ones at the floor
    pytest.param(lambda cfg: oracle_terms(Kernel(KernelKind.DISC2D, 2), 8, cfg),
                 10_000, 13, 6_656, id="terms-2-10000-13-6656"),
])
def test_image_points_are_bounded_by_samples_or_the_task_floor(monkeypatch, evaluate, samples,
                                                               tasks, points):
    budgets, sizes = [], []

    def counting(fn, box, nsamples, rng):
        def counted(*u):
            sizes.append(u[0].size)
            return fn(*u)

        budgets.append(nsamples)
        return _lattice_mc(counted, box, nsamples, rng)

    monkeypatch.setattr(oracle, "_factor", _factor.__wrapped__)
    monkeypatch.setattr(oracle, "_lattice_mc", counting)
    evaluate(OracleConfig(method="mc", samples=samples, seed=1))
    assert len(budgets) == tasks and sum(sizes) == points
    assert set(budgets) == {max(1000, samples // tasks)}
    assert sum(sizes) <= max(samples, 1000 * tasks)


def _mc_peak(f, kernel, samples):
    tracemalloc.start()
    try:
        oracle_eval(f, kernel, OracleConfig(method="mc", samples=samples, seed=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_peak_is_chunks_per_thread(monkeypatch, f, kernel, chunks):
    # two threads, at budgets of 4 and 16 million points (shifts of 4 and 16
    # chunks): the peak is a few arrays of one chunk per thread, whatever
    # the budget
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    arrays = 2 * stencil.CHUNK * 8
    small = _mc_peak(f, kernel, 16 * 250_000)
    large = _mc_peak(f, kernel, 4 * 16 * 250_000)
    assert max(small, large) <= chunks * arrays
    assert large <= small + arrays


def test_spline_mc_peak_memory_is_a_few_arrays_per_thread(monkeypatch):
    # two point arrays, their integer scratch, the lattice steps shared by
    # the threads, the values, |u| and the lookup's scratch: 8.3 to 8.4
    # chunk arrays per thread seen
    spline = Spline1D(np.random.default_rng(2).uniform(0.0, 1.0, 129))
    _assert_peak_is_chunks_per_thread(monkeypatch, spline, Kernel(KernelKind.BOX1D, 128), 9)


def test_callable_2d_mc_peak_memory_is_a_few_arrays_per_thread(monkeypatch):
    # four point arrays, their integer scratch, the shared lattice steps, the
    # values, the norm and the callable's own temporaries: 11.1 chunk arrays
    # per thread seen
    _assert_peak_is_chunks_per_thread(monkeypatch, lambda x, y: np.sin(3 * x) + y * y,
                                      Kernel(KernelKind.SQUARE2D, 8), 12)


def _second_call_peak(fn, draws):
    # tracemalloc peak of fn on fresh copies of the draws, after one warm-up
    fn(*[d.copy() for d in draws])
    fresh = [d.copy() for d in draws]
    tracemalloc.start()
    try:
        fn(*fresh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_MC_CFG = OracleConfig(method="mc", samples=50_000, seed=3)


@pytest.mark.parametrize("evaluate", [
    # the singular 1D factor samples a power-transformed piece and a plain one
    pytest.param(lambda: _factor.__wrapped__((1,), 8, KernelKind.BOX1D, 4, "mc", 8,
                                             50_000, 3, 1.5), id="1d-factor"),
    pytest.param(lambda: _factor.__wrapped__((2, 1), 6, KernelKind.DISC2D, 3, "mc", 8,
                                             50_000, 3, 1.0), id="2d-disc-factor"),
    pytest.param(lambda: _factor.__wrapped__((2, 1), 6, KernelKind.SQUARE2D, 3, "mc", 8,
                                             50_000, 3, 1.0), id="2d-square-factor"),
    pytest.param(lambda: oracle._curve_mc(
        Spline1D(np.random.default_rng(2).uniform(0.0, 1.0, 129)),
        Kernel(KernelKind.BOX1D, 128), _MC_CFG), id="spline-curve"),
    # a callable that allocates nothing itself
    pytest.param(lambda: oracle._curve_mc(lambda x, y: x, Kernel(KernelKind.DISC2D, 8),
                                          _MC_CFG), id="2d-disc-curve"),
    pytest.param(lambda: oracle._curve_mc(lambda x, y: x, Kernel(KernelKind.SQUARE2D, 8),
                                          _MC_CFG), id="2d-square-curve"),
])
def test_mc_integrands_allocate_nothing_after_their_first_box(monkeypatch, evaluate):
    # a chunk of 32,768 points: one float array is 256 KiB, one boolean 32 KiB
    integrands = []
    monkeypatch.setattr(oracle, "_lattice_mc",
                        lambda fn, axes, *args: integrands.append((fn, axes)) or (0.0, 0.0))
    evaluate()
    assert integrands
    rng = np.random.default_rng(5)
    for fn, axes in integrands:
        draws = [rng.uniform(a[0], a[-1], 1 << 15) for a in axes]
        assert _second_call_peak(fn, draws) < 64 * 1024


def test_mc_reports_hold_python_floats():
    # the pieces' edges are numpy scalars, and so would be the volume and
    # the estimate
    cfg = OracleConfig(method="mc", samples=20_000, seed=1)
    spline = Spline1D(np.random.default_rng(2).uniform(0.0, 1.0, 9))
    for f, kernel in [(spline, BOX), (np.sin, BOX), (lambda x, y: x * y, DISC)]:
        report = oracle_eval(f, kernel, cfg)
        assert type(report.value) is float
        assert type(report.stderr_estimate) is float
