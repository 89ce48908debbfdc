import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _curve_breaks,
    _factor_1d,
    _factor_2d,
    _gauss_on_panels,
    _gauss_rule,
    _kernel_values_2d,
    _kink_angles,
    _polar_factor,
    _refine,
    _stratified_mc,
    _stream,
    _tent,
    geometric_factor_1d,
    geometric_factor_2d,
    oracle_terms,
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
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            OracleConfig(p=p)
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
    # split over the offsets) and oracle_terms (whole budget) share factors
    factor = _factor_1d if kernel.dim == 1 else _factor_2d
    cfg = OracleConfig(method="gauss", samples=50_000, seed=4)
    grid_n = f.coeffs.shape[0]
    value = oracle_eval(f, kernel, cfg).value
    misses = factor.cache_info().misses
    terms = oracle_terms(kernel, grid_n, cfg)
    assert factor.cache_info().misses == misses
    factor.cache_clear()
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


# The Monte Carlo loops that _stratified_mc replaced, kept as references: the
# 1D sampler of _factor_1d, the 4x4 loop of _factor_2d and the one-box
# estimator of _callable_mc_2d.


def _old_mc_1d(fn, a, b, nsamples, rng, nstrata):
    edges = np.linspace(a, b, nstrata + 1)
    per = max(2, nsamples // nstrata)
    total = 0.0
    var = 0.0
    for s in range(nstrata):
        width = edges[s + 1] - edges[s]
        u = rng.uniform(edges[s], edges[s + 1], per)
        vals = fn(u)
        total += width * float(vals.mean())
        var += (width * float(vals.std(ddof=1)) / math.sqrt(per)) ** 2
    return total, math.sqrt(var)


def _old_mc_4x4(fn, xlo, xhi, ylo, yhi, nsamples, rng):
    per_stratum = max(2, nsamples // 16)
    xs = np.linspace(xlo, xhi, 5)
    ys = np.linspace(ylo, yhi, 5)
    total = 0.0
    var = 0.0
    for i in range(4):
        for j in range(4):
            ux = rng.uniform(xs[i], xs[i + 1], per_stratum)
            uy = rng.uniform(ys[j], ys[j + 1], per_stratum)
            vals = fn(ux, uy)
            cell_area = (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
            total += cell_area * float(vals.mean())
            var += (cell_area * float(vals.std(ddof=1)) / math.sqrt(per_stratum)) ** 2
    return total, math.sqrt(var)


def _old_mc_one_box(fn, r, nsamples, rng):
    x1 = rng.uniform(0.0, 1.0, nsamples)
    x2 = rng.uniform(0.0, 1.0, nsamples)
    u1 = rng.uniform(-r, r, nsamples)
    u2 = rng.uniform(-r, r, nsamples)
    vals = fn(x1, x2, u1, u2)
    measure = (2.0 * r) ** 2
    return (measure * float(vals.mean()),
            measure * float(vals.std(ddof=1)) / math.sqrt(nsamples))


def _hex_pair(result):
    return tuple(float(v).hex() for v in result)


@settings(max_examples=200, deadline=None)
@given(lo=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       width=st.lists(st.floats(1e-9, 2.0), min_size=2, max_size=2),
       nsamples=st.integers(2, 3000), seed=st.integers(0, 2 ** 64 - 1),
       task=st.integers(0, 2 ** 20), scale=st.integers(1, 2946))
def test_stratified_mc_equals_the_loops_it_replaced(lo, width, nsamples, seed, task,
                                                   scale):
    (a, c), (wa, wc) = lo, width
    b, d = a + wa, c + wc

    def f1(u):
        return np.exp(u) * np.cos(3.0 * u)

    def f2(ux, uy):
        return np.sin(ux) * uy + ux * ux

    def f4(x1, x2, u1, u2):
        return np.cos(x1 - u2) + x2 * u1

    def streams():
        return _stream(seed, task), _stream(seed, task)

    old, new = streams()
    assert (_hex_pair(_stratified_mc(f1, [np.linspace(a, b, 17)], nsamples, new))
            == _hex_pair(_old_mc_1d(f1, a, b, nsamples, old, 16)))
    old, new = streams()
    assert (_hex_pair(_stratified_mc(f2, [np.linspace(a, b, 5), np.linspace(c, d, 5)],
                                     nsamples, new))
            == _hex_pair(_old_mc_4x4(f2, a, b, c, d, nsamples, old)))
    # the one box has volume (2r)*(2r) where the old estimator had (2r)**2;
    # they first differ in the last bit at scale 2947
    r = 1.0 / scale
    old, new = streams()
    axes = [(0, 1), (0, 1), (-r, r), (-r, r)]
    assert (_hex_pair(_stratified_mc(f4, axes, nsamples, new))
            == _hex_pair(_old_mc_one_box(f4, r, nsamples, old)))


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


def _old_polar_factor(dx, dy, h, kernel, g, theta_split, p):
    knots_x = [(dx - 1) * h, dx * h, (dx + 1) * h]
    knots_y = [(dy - 1) * h, dy * h, (dy + 1) * h]
    thetas = _old_kink_angles(knots_x, knots_y, kernel)
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


def _old_x_integral(func, u, knots, p, g, split_roots):
    edges = _curve_breaks(knots, u, u, 1.0)
    if split_roots:
        refined = [edges[0]]
        for xa, xb in zip(edges[:-1], edges[1:]):
            da = float(func(np.array([xa]))[0] - func(np.array([xa - u]))[0])
            db = float(func(np.array([xb]))[0] - func(np.array([xb - u]))[0])
            if (da > 0) != (db > 0) and da != db:
                root = xa + (xb - xa) * da / (da - db)
                if xa < root < xb:
                    refined.append(root)
            refined.append(xb)
        edges = np.asarray(refined)
    return _old_gauss_on_panels(lambda x: np.abs(func(x) - func(x - u)) ** p, edges, g)


def _old_curve_gauss_1d(func, knots, kernel, cfg, split_roots):
    g = cfg.points_per_cell_axis
    nodes, weights = _gauss_rule(g)

    def band_value(delta):
        u_edges = _refine(_refine(_curve_breaks(knots, 0.0, delta,
                                                kernel.support_radius)))
        total = 0.0
        for ua, ub in zip(u_edges[:-1], u_edges[1:]):
            us = 0.5 * (ub + ua) + 0.5 * (ub - ua) * nodes
            ws = 0.5 * (ub - ua) * weights
            for u, w in zip(us, ws):
                total += w * _old_x_integral(func, float(u), knots, cfg.p, g,
                                             split_roots) / float(u) ** cfg.p
        return 2.0 * kernel.height * total

    near = band_value(cfg.exclusion_band)
    far = band_value(2.0 * cfg.exclusion_band)
    return max(2.0 * near - far, 0.0), abs(near - far)


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
                        == _old_kink_angles(knots_x, knots_y, kernel).tobytes())


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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_curve_gauss_reports_are_bit_identical_to_the_reference(p):
    # a spline (roots split for p in {1, 2}) and a callable (never split)
    spline = Spline1D(np.random.default_rng(9).uniform(0.0, 1.0, 9))
    cases = [(spline, np.linspace(0.0, 1.0, 9), p in (1.0, 2.0)),
             (lambda x: np.sin(3 * x) + x * x, np.linspace(0.0, 1.0, 33), False)]
    kernel = Kernel(KernelKind.BOX1D, 4)
    for g in (4, 8):
        cfg = OracleConfig(method="gauss", p=p, points_per_cell_axis=g)
        for f, knots, split_roots in cases:
            report = oracle_eval(f, kernel, cfg)
            ref = _old_curve_gauss_1d(f, knots, kernel, cfg, split_roots)
            assert ((report.value.hex(), report.richardson_delta.hex())
                    == tuple(v.hex() for v in ref))
