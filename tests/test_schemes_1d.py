import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nltv import (
    Kernel,
    KernelKind,
    OracleConfig,
    PiecewiseConstant1D,
    Spline1D,
    eval_pc_box,
    eval_pc_box_wide,
    eval_spline,
    oracle_eval,
    schemes_1d,
    stencil,
)

LN2 = math.log(2.0)
GAUSS = OracleConfig(method="gauss", points_per_cell_axis=10)


def test_pc_box_examples():
    assert eval_pc_box(PiecewiseConstant1D([3.0] * 6)) == 0.0
    assert eval_pc_box(PiecewiseConstant1D([0.0, 1.0])) == 1.0
    # frozen from the quadrature oracle on the same input (matched box, n=4)
    assert eval_pc_box(PiecewiseConstant1D([0.0, 1.0, 0.0, 1.0])) == 3.0


def test_pc_box_is_the_plain_difference_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(rng.integers(1, 40))
        total = 0.0
        for i in range(1, a.size):
            total += abs(float(a[i]) - float(a[i - 1]))
        assert eval_pc_box(PiecewiseConstant1D(a)) == total


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-1e12, 1e12), min_size=3, max_size=300))
def test_pc_box_wide_and_spline_are_their_plain_loops(values):
    # the stencil sums add left to right, terms in order, as these loops do;
    # the spline's edge term is the scalar function that eval_spline replaced
    def _spline_edge_term(am: float, a0: float, ap: float) -> float:
        # Zero differences are routed to the first branch; the two branches agree
        # whenever one difference vanishes, so the choice is value-neutral.
        d_left = am - a0
        d_right = a0 - ap
        if d_left == 0.0 or d_right == 0.0 or (d_left > 0.0) == (d_right > 0.0):
            return abs(ap - am) / 4.0
        return ((a0 - am) ** 2 + (a0 - ap) ** 2) / (4.0 * (abs(a0 - am) + abs(a0 - ap)))

    a = np.array(values)
    wide = 0.0
    for i in range(1, a.size):
        wide += LN2 * abs(float(a[i]) - float(a[i - 1]))
    for i in range(1, a.size - 1):
        wide += 0.5 * (1.0 - LN2) * abs(float(a[i + 1]) - float(a[i - 1]))
    assert eval_pc_box_wide(PiecewiseConstant1D(a)).hex() == wide.hex()
    spline = 0.0
    for i in range(1, a.size):
        spline += abs(float(a[i]) - float(a[i - 1])) / 2.0
    for i in range(1, a.size - 1):
        spline += _spline_edge_term(float(a[i - 1]), float(a[i]), float(a[i + 1]))
    assert eval_spline(Spline1D(a)).hex() == spline.hex()


def test_pc_box_wide_examples():
    assert eval_pc_box_wide(PiecewiseConstant1D([2.0, 2.0, 2.0])) == 0.0
    v = eval_pc_box_wide(PiecewiseConstant1D([0.0, 1.0, 1.0]))
    assert abs(v - ((1 - LN2) / 2 + LN2)) < 1e-15
    v = eval_pc_box_wide(PiecewiseConstant1D([1.0, 0.0, 1.0]))
    assert abs(v - 2 * LN2) < 1e-15
    with pytest.raises(ValueError):
        eval_pc_box_wide(PiecewiseConstant1D([1.0]))


def test_spline_examples():
    assert eval_spline(Spline1D([0.7, 0.7, 0.7])) == 0.0
    assert eval_spline(Spline1D([0.0, 1.0, 2.0])) == 1.5
    assert eval_spline(Spline1D([0.0, 1.0, 0.0])) == 1.25
    with pytest.raises(ValueError):
        eval_spline(Spline1D([0.0, 1.0]))


def test_spline_tie_is_value_neutral():
    # with one zero difference both branch formulas coincide
    for am, a0, ap in [(0.5, 0.5, -1.0), (2.0, 0.25, 0.25), (1.0, 1.0, 1.0)]:
        monotone = abs(ap - am) / 4
        if (am, a0, ap) != (1.0, 1.0, 1.0):
            general = ((a0 - am) ** 2 + (a0 - ap) ** 2) / (
                4 * (abs(a0 - am) + abs(a0 - ap)))
            assert abs(monotone - general) < 1e-15
        value = eval_spline(Spline1D([am, a0, ap]))
        assert abs(value - (abs(a0 - am) / 2 + abs(ap - a0) / 2 + monotone)) < 1e-15


def test_input_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant1D([])
    with pytest.raises(ValueError):
        PiecewiseConstant1D([1.0, float("nan")])
    with pytest.raises(ValueError):
        Spline1D([1.0])
    with pytest.raises(ValueError):
        PiecewiseConstant1D([[1.0, 2.0]])


@pytest.mark.parametrize("make,evaluate", [
    (lambda rng, n: PiecewiseConstant1D(rng.standard_normal(n)), eval_pc_box),
    (lambda rng, n: PiecewiseConstant1D(rng.standard_normal(n)), eval_pc_box_wide),
    (lambda rng, n: Spline1D(rng.standard_normal(n + 1)), eval_spline),
])
def test_shift_invariance_and_homogeneity(make, evaluate):
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        f = make(rng, n)
        coeffs = f.coeffs if isinstance(f, PiecewiseConstant1D) else f.nodes
        base = evaluate(f)
        shifted = type(f)(coeffs + rng.uniform(-5, 5))
        assert abs(evaluate(shifted) - base) <= 1e-12 * max(base, 1.0)
        for lam in (-2.0, -1.0, 0.5, 3.0):
            scaled = type(f)(coeffs * lam)
            assert abs(evaluate(scaled) - abs(lam) * base) <= 1e-12 * max(base, 1.0)


@pytest.mark.parametrize("make,evaluate", [
    (lambda rng, n: rng.standard_normal(n), eval_pc_box),
    (lambda rng, n: rng.standard_normal(n), eval_pc_box_wide),
    (lambda rng, n: rng.standard_normal(n + 1), eval_spline),
])
def test_sampled_convexity(make, evaluate):
    rng = np.random.default_rng(2)
    wrap = Spline1D if evaluate is eval_spline else PiecewiseConstant1D
    for _ in range(200):
        n = int(rng.integers(2, 16))
        f = make(rng, n)
        g = make(rng, n)
        ef, eg = evaluate(wrap(f)), evaluate(wrap(g))
        for theta in (0.25, 0.5, 0.75):
            mix = evaluate(wrap(theta * f + (1 - theta) * g))
            assert mix <= theta * ef + (1 - theta) * eg + 1e-12


def test_oracle_agreement_pc_box():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(2, 17))
        f = PiecewiseConstant1D(rng.standard_normal(n))
        closed = eval_pc_box(f)
        got = oracle_eval(f, Kernel(KernelKind.BOX1D, n), GAUSS).value
        assert abs(got - closed) <= 1e-3 * max(abs(closed), 1e-12)


def test_oracle_agreement_pc_wide():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 17))
        f = PiecewiseConstant1D(rng.standard_normal(n))
        closed = eval_pc_box_wide(f)
        got = oracle_eval(f, Kernel(KernelKind.BOX1D_WIDE, n), GAUSS).value
        assert abs(got - closed) <= 1e-3 * max(abs(closed), 1e-12)


def test_oracle_agreement_spline():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        f = Spline1D(rng.standard_normal(n + 1))
        closed = eval_spline(f)
        got = oracle_eval(f, Kernel(KernelKind.BOX1D, n), GAUSS).value
        assert abs(got - closed) <= 1e-3 * max(abs(closed), 1e-12)


def test_spline_callable_interface():
    f = Spline1D([0.0, 1.0, 0.0])
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(f(xs), [0.0, 0.5, 1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="out"):
        f(xs, out=np.empty(4))
    with pytest.raises(ValueError, match="out"):
        f(xs, out=np.empty(10)[::2])


def test_spline_grid_and_slopes_are_built_once(monkeypatch):
    nodes = np.random.default_rng(3).uniform(0.0, 1.0, 65)
    f = Spline1D(nodes)
    nodes[:] = 0.0  # the spline keeps its own read-only copy
    assert not f.nodes.flags.writeable and f.nodes.any()
    points = np.random.default_rng(4).uniform(-0.1, 1.1, 3 * _BLOCK)
    expected = np.interp(points, np.linspace(0.0, 1.0, 65), f.nodes)

    def no_rebuild(*args, **kwargs):
        raise AssertionError("the grid or the slopes were rebuilt")

    monkeypatch.setattr(np, "linspace", no_rebuild)
    monkeypatch.setattr(np, "diff", no_rebuild)
    assert np.array_equal(f(points), expected)
    assert np.array_equal(f(points[:10]), expected[:10])


def test_spline_call_into_its_input_allocates_nothing_after_the_first():
    # 32,768 points: a float or index array of them is 256 KiB
    spline = Spline1D(np.random.default_rng(3).uniform(0.0, 1.0, 129))
    points = np.random.default_rng(4).uniform(0.0, 1.0, 1 << 15)
    x = points.copy()
    spline(x, out=x)
    x = points.copy()
    tracemalloc.start()
    try:
        assert Spline1D(spline.nodes)(x, out=x) is x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.array_equal(x, spline(points))


_DIRECT = schemes_1d._INTERP_DIRECT_MAX
_BLOCK = stencil.CHUNK


@st.composite
def _spline_and_points(draw):
    n = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nodes = rng.standard_normal(n + 1) * 10.0 ** draw(st.integers(-3, 3))
    # rounding makes runs of equal nodes, i.e. zero slopes
    nodes = np.round(nodes, draw(st.integers(0, 17)))
    grid = np.linspace(0.0, 1.0, n + 1)
    special = np.concatenate([
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        # within and just beyond the bin margin of a node
        grid + rng.uniform(-3e-9, 3e-9, n + 1) / n,
        [0.0, -0.0, 1.0, -1e-300, -0.5, -7.0, 1.5, 9.0, 5e-324,
         -1e308, 1e308, -np.inf, np.inf, np.nan],
    ])
    # the lookup block: shrunken bounds cut every call past _DIRECT points
    # into blocks, the last of _DIRECT + 1 points holding one point
    block = draw(st.sampled_from([_BLOCK, 8, 64]))
    size = draw(st.sampled_from([1, 5, _DIRECT, _DIRECT + 1, 3 * _DIRECT,
                                 block, block + 1, 2 * block + 37]))
    fill = rng.uniform(-0.2, 1.2, max(size - special.size, 0))
    points = rng.permutation(np.concatenate([special, fill]))
    return nodes, points, size, block


# each example sets the bound afresh, and the fixture restores it at the end
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_spline_and_points())
def test_spline_call_equals_np_interp(monkeypatch, case):
    nodes, points, size, block = case
    monkeypatch.setattr(stencil, "CHUNK", block)
    f = Spline1D(nodes)
    grid = np.linspace(0.0, 1.0, nodes.size)
    expected = np.interp(points, grid, nodes)
    # every point is evaluated in calls of `size` points
    got = np.concatenate([f(points[i:i + size])
                          for i in range(0, points.size, size)])
    assert np.array_equal(got, expected, equal_nan=True)
    half = points.size // 2
    shaped = points[:2 * half].reshape(2, half)
    assert f(shaped).shape == shaped.shape
    assert np.array_equal(f(shaped), np.interp(shaped, grid, nodes), equal_nan=True)
    # into a separate buffer and into the input itself, in calls of `size`
    into = np.full_like(points, 7.0)
    aliased = points.copy()
    for i in range(0, points.size, size):
        window = into[i:i + size]
        assert f(points[i:i + size], out=window) is window
        chunk = aliased[i:i + size]
        assert f(chunk, out=chunk) is chunk
    assert np.array_equal(into, expected, equal_nan=True)
    assert np.array_equal(aliased, expected, equal_nan=True)
    for v in points[:3]:
        got_scalar = f(float(v))
        assert np.shape(got_scalar) == ()
        assert np.array_equal(got_scalar, np.interp(float(v), grid, nodes),
                              equal_nan=True)
