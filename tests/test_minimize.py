import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded

from nltv import (
    DataTerm,
    EnergyParams,
    Image2D,
    Kernel,
    KernelKind,
    OracleConfig,
    PiecewiseConstant1D,
    SolverConfig,
    Stencil,
    denoise,
    energy,
    eval_image,
    eval_pc_box,
    eval_pc_box_wide,
    gamma_experiment,
    kpn,
    taut_string_1d,
)
from nltv.minimize import (
    SCHEME_CLOSED_1D,
    SCHEME_CLOSED_2D,
    SCHEME_ORACLE,
    _regularizer_terms,
    _solve,
    _Tracker,
)
from nltv.oracle import oracle_terms
from test_byte_identity import _case as _pinned_case

TIGHT = SolverConfig(tol=1e-15, max_iter=60_000, plateau=10)


def params_1d(n, alpha, p=1.0, kind=KernelKind.BOX1D, scheme=SCHEME_CLOSED_1D,
              scale=None):
    return EnergyParams(p=p, alpha=alpha, kernel=Kernel(kind, scale or n),
                        grid_n=n, scheme=scheme)


def tv_exact(d, lam):
    return taut_string_1d(d, lam)


# ---------------------------------------------------------------------------
# energy


def test_energy_hand_example():
    data = DataTerm.of([0.0, 1.0])
    params = params_1d(2, alpha=0.1)
    value = energy([0.25, 0.75], data, params)
    assert abs(value - 0.08125) < 1e-15


def test_energy_trivial_cases():
    data = DataTerm.of([0.2, 0.9, 0.4])
    params = params_1d(3, alpha=0.3)
    at_data = energy(data.data, data, params)
    assert abs(at_data - 0.3 * (0.7 + 0.5)) < 1e-15
    const = DataTerm.of([0.5, 0.5])
    assert energy([0.5, 0.5], const, params_1d(2, alpha=1.0)) == 0.0
    with pytest.raises(ValueError):
        energy([0.0, 1.0, 2.0], data, params_1d(2, alpha=0.1))
    with pytest.raises(ValueError):
        energy([0.2, math.nan, 0.4], data, params)
    with pytest.raises(ValueError, match="shape mismatch"):
        energy([0.2, 0.9], data, params)
    square = DataTerm.of(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="data dimensionality does not match the kernel"):
        energy(square.data, square, params)
    with pytest.raises(ValueError, match="the double-width scheme needs n >= 2"):
        energy([0.5], DataTerm.of([0.5]), params_1d(1, alpha=0.1, kind=KernelKind.BOX1D_WIDE))


def test_param_validation():
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            params_1d(4, alpha=alpha)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(tol=tol)
    for p in (0.9, math.inf, math.nan):
        with pytest.raises(ValueError):
            EnergyParams(p=p, alpha=1.0, kernel=Kernel(KernelKind.BOX1D, 4),
                         grid_n=4, scheme=SCHEME_CLOSED_1D)
    with pytest.raises(ValueError):
        # mismatched kernel scale is not a closed form
        EnergyParams(p=1.0, alpha=1.0, kernel=Kernel(KernelKind.BOX1D, 2),
                     grid_n=4, scheme=SCHEME_CLOSED_1D)
    with pytest.raises(ValueError):
        # divergent configuration
        EnergyParams(p=2.0, alpha=1.0, kernel=Kernel(KernelKind.BOX1D, 2),
                     grid_n=8, scheme=SCHEME_ORACLE)
    with pytest.raises(ValueError):
        DataTerm.of(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="a vector or a square matrix"):
        DataTerm.of(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="data must be finite"):
        DataTerm.of([0.0, math.nan])
    with pytest.raises(ValueError, match="grid_n must be positive"):
        EnergyParams(p=1.0, alpha=1.0, kernel=Kernel(KernelKind.BOX1D, 4),
                     grid_n=0, scheme=SCHEME_ORACLE)
    with pytest.raises(ValueError, match="scheme must be one of"):
        EnergyParams(p=1.0, alpha=1.0, kernel=Kernel(KernelKind.BOX1D, 4),
                     grid_n=4, scheme="closed")
    with pytest.raises(ValueError, match="closed-form 2D scheme needs a matched 2D kernel"):
        EnergyParams(p=1.0, alpha=1.0, kernel=Kernel(KernelKind.DISC2D, 3),
                     grid_n=4, scheme=SCHEME_CLOSED_2D)
    with pytest.raises(ValueError, match="the 2D scheme needs grid_n >= 2"):
        EnergyParams(p=1.0, alpha=1.0, kernel=Kernel(KernelKind.DISC2D, 1),
                     grid_n=1, scheme=SCHEME_CLOSED_2D)
    # a stencil's offsets have the dimension of its grid
    with pytest.raises(ValueError, match="does not match grid shape"):
        Stencil((4,), [((1, 0), 1.0)])


def test_init_is_the_smooth_solver_start_only():
    with pytest.raises(ValueError, match="starts from the data"):
        SolverConfig(init=np.zeros(4))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(method="smooth", init=np.array([0.0, bad]))
    with pytest.raises(ValueError, match="init must have the same size as the data"):
        denoise(DataTerm.of([0.0, 1.0, 0.0]), params_1d(3, alpha=0.1),
                SolverConfig(method="smooth", init=np.zeros(2)))


def test_no_pair_returns_the_data():
    # K = 0 on a 1-cell grid: the data is the minimizer wherever a solve starts
    oracle_1x1 = EnergyParams(p=1.0, alpha=0.1, kernel=Kernel(KernelKind.DISC2D, 1),
                              grid_n=1, scheme=SCHEME_ORACLE)
    cases = [(DataTerm.of([0.3]), params_1d(1, alpha=0.1)),
             (DataTerm.of([[0.3]]), oracle_1x1)]
    for solver in (SolverConfig(), SolverConfig(method="smooth", init=np.array([5.0]))):
        for data, params in cases:
            res = denoise(data, params, solver)
            assert res.converged and res.iterations == 0
            assert res.minimizer.tolist() == data.data.tolist()
            assert res.energy_trace.tolist() == [0.0]
            assert energy(res.minimizer, data, params) == 0.0


@pytest.mark.parametrize("shape", [(7,), (3, 3)])
def test_cell_measure_is_derived_from_the_grid(shape):
    for data in (DataTerm(np.zeros(shape)), DataTerm.of(np.zeros(shape))):
        assert data.cell_measure == shape[0] ** -len(shape)


def test_closed_2d_pairs_match_eval_image():
    rng = np.random.default_rng(20)
    for n in (2, 5):
        params = EnergyParams(p=1.0, alpha=1.0, kernel=Kernel(KernelKind.DISC2D, n),
                              grid_n=n, scheme=SCHEME_CLOSED_2D)
        stencil = Stencil((n, n), _regularizer_terms(params))
        a = rng.uniform(0, 1, (n, n))
        pair_sum = float(np.sum(stencil.pair_weights()
                                * np.abs(stencil.gather(a.ravel()))))
        assert abs(pair_sum - eval_image(Image2D(a), KernelKind.DISC2D)) < 1e-13


def test_oracle_pairs_match_wide_closed_form():
    # matched double-width kernel: the oracle weights must reproduce the
    # ln(2) / (1 - ln 2)/2 stencil
    n = 9
    po = params_1d(n, alpha=1.0, kind=KernelKind.BOX1D_WIDE, scheme=SCHEME_ORACLE)
    by_dist = {}
    for (d,), wv in _regularizer_terms(po):
        by_dist.setdefault(d, set()).add(round(wv, 12))
    assert set(by_dist) == {1, 2}
    assert by_dist[1] == {round(math.log(2.0), 12)}
    assert by_dist[2] == {round(0.5 * (1 - math.log(2.0)), 12)}


_CLOSED_FORMS = {
    KernelKind.BOX1D: lambda a: eval_pc_box(PiecewiseConstant1D(a)),
    KernelKind.BOX1D_WIDE: lambda a: eval_pc_box_wide(PiecewiseConstant1D(a)),
    KernelKind.DISC2D: lambda a: eval_image(Image2D(a), KernelKind.DISC2D),
    KernelKind.SQUARE2D: lambda a: eval_image(Image2D(a), KernelKind.SQUARE2D),
}


@st.composite
def _grid_inputs(draw):
    kind = draw(st.sampled_from(sorted(_CLOSED_FORMS, key=lambda k: k.value)))
    dim = 1 if kind in (KernelKind.BOX1D, KernelKind.BOX1D_WIDE) else 2
    n = draw(st.integers(2, 9))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    a = draw(arrays(np.float64, (n,) * dim, elements=values))
    offsets = draw(st.lists(st.tuples(*[st.integers(-n - 1, n + 1)] * dim),
                            min_size=1, max_size=3))
    return kind, a, offsets, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(_grid_inputs())
def test_stencil_value_and_adjoint_property(case):
    kind, a, offsets, seed = case
    n = a.shape[0]
    scheme = SCHEME_CLOSED_1D if a.ndim == 1 else SCHEME_CLOSED_2D
    params = EnergyParams(p=1.0, alpha=1.0, kernel=Kernel(kind, n), grid_n=n,
                          scheme=scheme)
    got = Stencil(a.shape, _regularizer_terms(params)).value(a.ravel(), 1.0)
    # products that fall below the normal range round in absolute terms, so
    # the relative bound gets an absolute floor far below any normal value
    assert math.isclose(got, _CLOSED_FORMS[kind](a), rel_tol=1e-12, abs_tol=1e-300)

    # <gather(x), q> = <x, scatter(q)>, on arbitrary offsets (including ones
    # that fit no pair on the grid)
    stencil = Stencil(a.shape, [(off, 1.0) for off in offsets])
    x = a.ravel()
    q = np.random.default_rng(seed).uniform(-1.0, 1.0, stencil.size)
    lhs = float(stencil.gather(x) @ q)
    rhs = float(x @ stencil.scatter(q))
    to_base, to_partner = stencil.scatter_ends(np.abs(q))
    scale = float(np.abs(x) @ (to_base + to_partner))
    assert abs(lhs - rhs) <= 1e-12 * scale + 1e-300


@st.composite
def _stencil_inputs(draw):
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 9))
    offsets = draw(st.lists(st.tuples(*[st.integers(-n - 1, n + 1)] * dim),
                            min_size=1, max_size=3))
    weights = draw(st.lists(st.floats(0.0, 1e3), min_size=len(offsets),
                            max_size=len(offsets)))
    stencil = Stencil((n,) * dim, list(zip(offsets, weights)))
    values = st.floats(-1e4, 1e4, allow_nan=False)
    f = draw(arrays(np.float64, n ** dim, elements=values))
    q = draw(arrays(np.float64, stencil.size, elements=st.floats(allow_nan=True)))
    # six pair values of at most 1e300 sum without overflow
    qs = draw(arrays(np.float64, stencil.size, elements=st.floats(-1e300, 1e300)))
    p = draw(st.sampled_from([1, 1.0, 1.5, 2.0, 3.0]))
    return stencil, f, q, qs, p


@settings(max_examples=200, deadline=None)
@given(_stencil_inputs())
def test_stencil_projection_value_and_scatter_property(case):
    stencil, f, q, qs, p = case
    wn = stencil.pair_weights()
    # the per-term scalar clip equals the clip against per-pair bounds, bit
    # for bit (signed zeros, infinities and nans included)
    expected = np.clip(q, -wn, wn)
    got = q.copy()
    assert stencil.project(got) is got
    assert got.tobytes() == expected.tobytes()

    # value without the power for p = 1 equals the |g| ** p form taken
    # through the same reduction
    g = stencil.gather(f)
    old_value = float(np.abs(g) ** float(p) @ wn)
    assert stencil.value(f, p).hex() == old_value.hex()

    # one accumulator against the separate base and partner sums; each
    # cell sums at most six pair values, so both round within 1e-15 of the
    # sum of their magnitudes (the adjoint identity is checked by
    # test_stencil_value_and_adjoint_property)
    pos, neg = stencil.scatter_ends(qs)
    to_base, to_partner = stencil.scatter_ends(np.abs(qs))
    bound = 1e-15 * (to_base + to_partner) + 1e-300
    assert np.all(np.abs(stencil.scatter(qs) - (pos - neg)) <= bound)


def _slice_blocks(shape, terms):
    """The 2D-slice layout the flat-shift blocks replaced: per term, the
    (base, partner) index tuples of the cells i whose partner i + o lies on
    the grid, each block in the grid shape of those cells."""
    blocks = []
    for off, _ in terms:
        base, partner = [], []
        for n, o in zip(shape, off):
            m = max(n - abs(o), 0)
            base.append(slice(max(-o, 0), max(-o, 0) + m))
            partner.append(slice(max(o, 0), max(o, 0) + m))
        blocks.append((tuple(base), tuple(partner)))
    return blocks


def _flat_blocks(shape, terms):
    """(start, stop, grid-pair mask) of each term's block of the pair vector:
    the flat shift k = o . strides, the base cells max(-k, 0) onwards, and a
    grid pair wherever the partner's coordinates stay on the grid."""
    cells = math.prod(shape)
    strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
    out, start = [], 0
    for off, _ in terms:
        k = sum(o * s for o, s in zip(off, strides))
        m = max(cells - abs(k), 0)
        coords = np.unravel_index(np.arange(max(-k, 0), max(-k, 0) + m), shape)
        mask = np.ones(m, dtype=bool)
        for c, o, n in zip(coords, off, shape):
            mask &= (c + o >= 0) & (c + o < n)
        out.append((start, start + m, mask))
        start += m
    return out


@st.composite
def _layout_inputs(draw):
    dim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(dim))
    # offsets of every sign and size: negative and zero flat shifts, and
    # offsets that fit no pair on the grid
    coords = [st.integers(-n - 1, n + 1) for n in shape]
    offsets = draw(st.lists(st.tuples(*coords), min_size=1, max_size=4))
    weights = draw(st.lists(st.floats(0.0, 1e3), min_size=len(offsets),
                            max_size=len(offsets)))
    terms = list(zip(offsets, weights))
    cells = math.prod(shape)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    f = draw(arrays(np.float64, cells, elements=finite))
    q = draw(arrays(np.float64, _flat_blocks(shape, terms)[-1][1], elements=finite))
    return shape, terms, f, q


@settings(max_examples=300, deadline=None)
@given(_layout_inputs())
# every finite double is drawn, so differences and sums may overflow to inf
# (and inf - inf to nan); the two layouts must agree on those bit for bit too
@np.errstate(over="ignore", invalid="ignore")
def test_flat_shift_layout_matches_slice_layout(case):
    shape, terms, f, q = case
    stencil = Stencil(shape, terms)
    flat = _flat_blocks(shape, terms)
    old = _slice_blocks(shape, terms)
    assert stencil.size == q.size
    a = f.reshape(shape)
    g = stencil.gather(f)
    wn = stencil.pair_weights()
    projected = stencil.project(q.copy())
    degree = np.zeros(shape, dtype=int)
    old_scatter = np.zeros(shape)
    for (start, stop, mask), (base, partner), (_, w) in zip(flat, old, terms):
        # the grid pairs, in order, are the old block's differences bit for bit
        assert g[start:stop][mask].tobytes() == (a[base] - a[partner]).ravel().tobytes()
        # wrapped pairs weigh 0 and project to 0
        assert wn[start:stop].tobytes() == np.where(mask, w, 0.0).tobytes()
        assert np.all(projected[start:stop][~mask] == 0.0)
        # the old scatter of the projected grid pairs
        qb = projected[start:stop][mask].reshape(a[base].shape)
        old_scatter[base] += qb
        ends = old_scatter[partner]
        np.subtract(ends, qb, out=ends)
        degree[base] += 1
        degree[partner] += 1
    assert stencil.scatter(projected).tobytes() == old_scatter.ravel().tobytes()
    assert stencil.max_degree == degree.max()


def _normal_matrix_max(stencil):
    """Largest eigenvalue of K^T K, K the dense difference operator of the
    stencil's grid pairs."""
    cells = math.prod(stencil.shape)
    k = np.stack([stencil.gather(e) for e in np.eye(cells)], axis=1)
    k = k[np.concatenate([mask for *_, mask in _flat_blocks(stencil.shape, stencil.terms)])]
    return float(np.linalg.eigvalsh(k.T @ k).max())


@st.composite
def _bound_inputs(draw):
    dim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(1, 8)) for _ in range(dim))
    coords = [st.integers(-n - 1, n + 1) for n in shape]
    offsets = draw(st.lists(st.tuples(*coords), min_size=1, max_size=5))
    return Stencil(shape, [(off, 1.0) for off in offsets])


def _assert_step_bound(stencil):
    lam = _normal_matrix_max(stencil)
    assert stencil.op_norm_sq >= lam * (1.0 - 1e-12)
    assert stencil.op_norm_sq <= 2.0 * stencil.max_degree


@settings(max_examples=200, deadline=None)
@given(_bound_inputs())
def test_step_bound_covers_the_operator_norm(stencil):
    _assert_step_bound(stencil)


def test_step_bound_of_oracle_and_closed_stencils():
    # 38 offsets of a disc kernel reaching four cells, on an 8 x 8 grid
    oracle = Stencil((8, 8), oracle_terms(Kernel(KernelKind.DISC2D, 2), 8,
                                          OracleConfig(method="mc", samples=20_000,
                                                       seed=1)))
    assert len(oracle.terms) == 38
    _assert_step_bound(oracle)
    assert oracle.op_norm_sq < 2.0 * oracle.max_degree
    for n in range(3, 9):
        # the symbol peaks at w = pi (1D) and w = (0, pi) (closed 2D), both
        # frequencies of the even torus; the grid norms lie within O(1/n^2)
        # below (in 1D 4 - |K|^2 = 4 sin^2(pi / 2n) <= pi^2 / n^2)
        box = Stencil((n,), [((1,), 1.0)])
        closed = Stencil((n, n), _regularizer_terms(EnergyParams(
            p=1.0, alpha=1.0, kernel=Kernel(KernelKind.DISC2D, n), grid_n=n,
            scheme=SCHEME_CLOSED_2D)))
        assert box.op_norm_sq == 4.0
        assert closed.op_norm_sq == 12.0
        assert 4.0 - math.pi ** 2 / n ** 2 <= _normal_matrix_max(box) <= 4.0
        assert 12.0 - 4.0 * math.pi ** 2 / n ** 2 <= _normal_matrix_max(closed) <= 12.0


# ---------------------------------------------------------------------------
# taut string


def test_taut_string_basics():
    d = np.array([0.3, -1.2, 0.7])
    assert np.array_equal(taut_string_1d(d, 0.0), d)
    assert np.allclose(taut_string_1d(np.full(5, 1.3), 2.0), np.full(5, 1.3))
    got = taut_string_1d([0.0, 0.0, 1.0, 1.0], 0.1)
    assert np.allclose(got, [0.05, 0.05, 0.95, 0.95], atol=1e-14)
    with pytest.raises(ValueError):
        taut_string_1d(d, -0.1)
    # lam -> inf pins the string at both ends only: the mean
    assert np.array_equal(taut_string_1d(d, math.inf), np.full(3, d.mean()))
    with pytest.raises(ValueError, match="lam"):
        taut_string_1d(d, math.nan)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            taut_string_1d([0.3, bad, 0.7], 0.5)


def test_taut_string_example_against_grid_search():
    # two-level candidates [a, a, b, b] cover the optimal structure here
    d = np.array([0.0, 0.0, 1.0, 1.0])
    lam = 0.1
    grid = np.linspace(-0.5, 1.5, 801)
    # u = [a, a, b, b] over every pair of the grid, a outermost; argmin takes
    # the first smallest value in that order
    a, b = grid[:, None], grid[None, :]
    vals = (0.5 * ((a - d[0]) ** 2 + (a - d[1]) ** 2 + (b - d[2]) ** 2 + (b - d[3]) ** 2)
            + lam * np.abs(b - a))
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    best = np.array([grid[i], grid[i], grid[j], grid[j]])
    assert np.max(np.abs(taut_string_1d(d, lam) - best)) < 5e-3


def test_taut_string_optimality_kkt():
    """The KKT conditions are necessary and sufficient here: the cumulative
    residual must stay inside [-lam, lam], vanish at the end, and sit on the
    correct bound wherever the output jumps."""
    rng = np.random.default_rng(21)
    for trial in range(300):
        n = int(rng.integers(1, 100))
        d = rng.standard_normal(n) * rng.uniform(0.3, 3.0)
        if trial % 3 == 0:
            d = np.round(d * 2) / 2
        lam = float(rng.uniform(0.01, 2.0))
        u = taut_string_1d(d, lam)
        q = np.cumsum(d - u)
        assert abs(q[-1]) < 1e-9
        assert np.all(np.abs(q[:-1]) <= lam + 1e-9)
        jumps = np.diff(u)
        for i, jump in enumerate(jumps):
            if jump > 1e-9:
                assert abs(q[i] + lam) < 1e-9
            elif jump < -1e-9:
                assert abs(q[i] - lam) < 1e-9


# ---------------------------------------------------------------------------
# denoise


def test_alpha_to_zero_returns_data():
    rng = np.random.default_rng(22)
    d = rng.standard_normal(24)
    res = denoise(DataTerm.of(d), params_1d(24, alpha=1e-12), TIGHT)
    assert np.max(np.abs(res.minimizer - d)) <= 1e-6
    assert res.converged


def test_denoise_matches_taut_string():
    rng = np.random.default_rng(23)
    for trial in range(4):
        d = rng.standard_normal(32).cumsum() / 5
        for alpha in (1e-3, 2e-2):
            res = denoise(DataTerm.of(d), params_1d(32, alpha=alpha), TIGHT)
            exact = tv_exact(d, alpha * 32)
            assert np.max(np.abs(res.minimizer - exact)) <= 1e-6
            assert np.all(np.diff(res.energy_trace) <= 1e-12)
            assert res.converged


def test_denoise_p2_matches_tridiagonal_solve():
    rng = np.random.default_rng(24)
    n = 32
    d = rng.standard_normal(n)
    alpha = 0.01
    res = denoise(DataTerm.of(d), params_1d(n, alpha=alpha, p=2.0),
                  SolverConfig(tol=1e-16, max_iter=5000, plateau=10))
    lam = alpha * n  # normalized weight of sum(diff^2)
    ab = np.zeros((3, n))
    ab[0, 1:] = -2 * lam
    ab[2, :-1] = -2 * lam
    ab[1, :] = 1 + 4 * lam
    ab[1, 0] = ab[1, -1] = 1 + 2 * lam
    exact = solve_banded((1, 1), ab, d)
    assert np.max(np.abs(res.minimizer - exact)) <= 1e-8


def test_mean_preservation_and_grey_shift():
    rng = np.random.default_rng(25)
    d = np.concatenate([np.zeros(16), np.ones(16)]) + 0.1 * rng.standard_normal(32)
    params = params_1d(32, alpha=0.01)
    res = denoise(DataTerm.of(d), params, TIGHT)
    assert abs(res.minimizer.mean() - d.mean()) <= 1e-8
    shifted = denoise(DataTerm.of(d + 4.2), params, TIGHT)
    assert np.max(np.abs(shifted.minimizer - res.minimizer - 4.2)) <= 1e-7


def test_uniqueness_probe_independent_solvers_and_inits():
    rng = np.random.default_rng(26)
    d = rng.standard_normal(24).cumsum() / 4
    params = params_1d(24, alpha=0.02)
    from_data = denoise(DataTerm.of(d), params, TIGHT)
    from_zero = denoise(DataTerm.of(d), params,
                        SolverConfig(method="smooth", tol=1e-15,
                                     max_iter=60_000, init=np.zeros(24)))
    assert np.max(np.abs(from_data.minimizer - from_zero.minimizer)) <= 1e-5


def test_smooth_solver_cross_validates_pd():
    rng = np.random.default_rng(27)
    d = rng.standard_normal(24).cumsum() / 6
    params = params_1d(24, alpha=5e-3)
    a = denoise(DataTerm.of(d), params, TIGHT)
    b = denoise(DataTerm.of(d), params,
                SolverConfig(method="smooth", tol=1e-15, max_iter=60_000))
    assert np.max(np.abs(a.minimizer - b.minimizer)) <= 1e-5
    assert np.all(np.diff(b.energy_trace) <= 1e-12)


def test_non_convergence_is_reported_not_raised():
    rng = np.random.default_rng(28)
    d = rng.standard_normal(16)
    res = denoise(DataTerm.of(d), params_1d(16, alpha=0.05),
                  SolverConfig(tol=1e-16, max_iter=3, plateau=5))
    assert not res.converged
    assert res.iterations == 3
    assert np.all(np.diff(res.energy_trace) <= 1e-12)


def test_denoise_2d_runs_and_preserves_mean():
    rng = np.random.default_rng(29)
    a = rng.uniform(0, 1, (8, 8))
    params = EnergyParams(p=1.0, alpha=0.01, kernel=Kernel(KernelKind.DISC2D, 8),
                          grid_n=8, scheme=SCHEME_CLOSED_2D)
    res = denoise(DataTerm.of(a), params, TIGHT)
    assert res.converged
    assert res.minimizer.shape == (8, 8)
    assert abs(res.minimizer.mean() - a.mean()) <= 1e-8


# (p, kernel kind, kernel scale from the grid size n, scheme, solver method)
_TRACE_CASES = {
    "closed-1d-box": (1.0, KernelKind.BOX1D, lambda n: n, SCHEME_CLOSED_1D, "pd"),
    "closed-1d-box2": (1.0, KernelKind.BOX1D_WIDE, lambda n: n, SCHEME_CLOSED_1D, "pd"),
    "closed-1d-box-p2": (2.0, KernelKind.BOX1D, lambda n: n, SCHEME_CLOSED_1D, "pd"),
    "closed-2d-disc": (1.0, KernelKind.DISC2D, lambda n: n, SCHEME_CLOSED_2D, "pd"),
    "closed-2d-disc-p2": (2.0, KernelKind.DISC2D, lambda n: n, SCHEME_CLOSED_2D, "pd"),
    "closed-2d-square": (1.0, KernelKind.SQUARE2D, lambda n: n, SCHEME_CLOSED_2D, "pd"),
    "oracle-1d": (1.0, KernelKind.BOX1D, lambda n: n // 4, SCHEME_ORACLE, "pd"),
    "smooth-1d-box": (1.0, KernelKind.BOX1D, lambda n: n, SCHEME_CLOSED_1D, "smooth"),
}


@pytest.mark.parametrize("name", sorted(_TRACE_CASES))
def test_energy_of_the_minimizer_matches_the_trace(name):
    # energy() and every solve share one formula: a p = 1 minimizer is the
    # iterate whose energy the trace last recorded, bit for bit; a certified
    # p = 2 solve returns its last iterate, whose energy may lie above the
    # trace's best
    p, kind, scale, scheme, method = _TRACE_CASES[name]
    dim = Kernel(kind, 1).dim
    rng = np.random.default_rng(sorted(_TRACE_CASES).index(name))
    for _ in range(15):
        n = int(rng.integers(8, 49) if dim == 1 else rng.integers(3, 13))
        # a step at 0.4 of the flattened grid, plus noise
        d = (np.arange(n ** dim) >= 0.4 * n ** dim).astype(float).reshape((n,) * dim)
        d += 0.2 * rng.standard_normal(d.shape)
        params = EnergyParams(p=p, alpha=float(10 ** rng.uniform(-3.0, -1.3)),
                              kernel=Kernel(kind, scale(n)), grid_n=n, scheme=scheme)
        data = DataTerm.of(d)
        res = denoise(data, params, SolverConfig(method=method, max_iter=400))
        value = energy(res.minimizer, data, params)
        if p == 1.0:
            assert value == res.energy_trace[-1]
        else:
            assert res.converged and value >= res.energy_trace[-1]


def test_denoise_validates_shapes_and_solver():
    d = DataTerm.of(np.zeros(8))
    with pytest.raises(ValueError):
        denoise(d, params_1d(6, alpha=0.1))
    with pytest.raises(ValueError):
        denoise(d, params_1d(8, alpha=0.1, p=1.5))  # pd needs p in {1, 2}
    with pytest.raises(ValueError):
        denoise(d, params_1d(8, alpha=0.1), SolverConfig(method="newton"))


def _reference_pdhg(d, mu, stencil, p, solver):
    """The p = 1 primal-dual loop before the one-scatter iteration: the
    momentum point is scattered and gathered afresh, the energy gathers
    again, the projection clips against per-pair bounds and the adjoint sums
    the base and partner ends apart. Returns the iteration count and every
    iterate the tracker saw, with its energy (the initial point first)."""
    gather = stencil.gather

    def scatter(q):
        pos, neg = stencil.scatter_ends(q)
        return pos - neg

    wn = stencil.pair_weights()

    def total_energy(x):
        return mu * (0.5 * float(np.sum((x - d) ** 2))
                     + float(np.sum(np.abs(gather(x)) ** p * wn)))

    tracker = _Tracker(d, total_energy(d), solver.tol, solver.plateau)
    seen = [(d.copy(), tracker.best_energy)]
    op_norm_sq = stencil.op_norm_sq  # the solver's step bound
    q = np.zeros(stencil.size)
    q_prev = q.copy()
    t_acc = 1.0
    dual_last = math.inf
    it = 0
    for it in range(1, solver.max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = q + ((t_acc - 1.0) / t_next) * (q - q_prev)
        x = d - scatter(y)
        q_new = np.clip(y + gather(x) / op_norm_sq, -wn, wn)
        x_new = d - scatter(q_new)
        dual_obj = 0.5 * float(x_new @ x_new)
        if dual_obj > dual_last:
            t_next = 1.0
            x = d - scatter(q)
            q_new = np.clip(q + gather(x) / op_norm_sq, -wn, wn)
            x_new = d - scatter(q_new)
            dual_obj = 0.5 * float(x_new @ x_new)
        q_prev, q = q, q_new
        t_acc = t_next
        dual_last = dual_obj
        e = total_energy(x_new)
        seen.append((x_new.copy(), e))
        if tracker.step(x_new, e):
            break
    return it, seen


def _disc_image(n, seed):
    rng = np.random.default_rng(seed)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    c = (n - 1) / 2
    inside = (ii - c) ** 2 + (jj - c) ** 2 < (n / 3) ** 2
    return inside.astype(float) + 0.1 * rng.standard_normal((n, n))


def _reference_case(name):
    """(data, unnormalized stencil, p, alpha, solver) of one comparison."""
    if name.startswith("pinned-"):
        d, (p, alpha, kernel, scheme), solver = _pinned_case(name[len("pinned-"):])
        params = EnergyParams(p=p, alpha=alpha, kernel=kernel, grid_n=d.shape[0],
                              scheme=scheme)
        return d, Stencil(d.shape, _regularizer_terms(params)), p, alpha, solver
    p, alpha = (1.0, 2e-3) if name.endswith("p1") else (2.0, 2e-4)
    if name.startswith("disc32"):
        params = EnergyParams(p=p, alpha=alpha, kernel=Kernel(KernelKind.DISC2D, 32),
                              grid_n=32, scheme=SCHEME_CLOSED_2D)
        stencil, solver = Stencil((32, 32), _regularizer_terms(params)), SolverConfig(tol=1e-7)
        return _disc_image(32, 30), stencil, p, alpha, solver
    # oracle weights of a disc of radius four cells: 38 offsets on a 16x16 grid
    stencil = Stencil((16, 16), oracle_terms(Kernel(KernelKind.DISC2D, 4), 16,
                                             OracleConfig(method="mc", samples=20_000,
                                                          seed=1)))
    assert len(stencil.terms) > 30
    return _disc_image(16, 31), stencil, p, alpha, SolverConfig()


def _normalized_problem(name):
    """(data vector, cell measure, cell-normalized stencil, p, solver) of
    one comparison case, as :func:`nltv.denoise` hands them to the solver."""
    data, reg, p, alpha, solver = _reference_case(name)
    mu = data.size ** -1.0
    scale = alpha / kpn(p, data.ndim).value
    stencil = Stencil(reg.shape, [(off, scale * w / mu) for off, w in reg.terms])
    return data.ravel().astype(float), mu, stencil, p, solver


def _solve_normalized(d, mu, stencil, p, solver):
    """:func:`nltv.minimize._solve` on a cell-normalized stencil, with the
    energy that :func:`nltv.minimize._problem` pairs with it."""
    def total_energy(x, diffs=None):
        return mu * (0.5 * float(np.sum((x - d) ** 2)) + stencil.value(x, p, diffs))

    return _solve(d, stencil, total_energy, p, solver)


@pytest.mark.parametrize("name", [
    "pinned-closed-1d-box", "pinned-closed-1d-box2", "pinned-closed-2d-disc",
    "pinned-oracle-1d", "disc32-p1", "oracle-many-offsets-p1",
])
def test_pdhg_matches_reference_iteration(name):
    d, mu, stencil, p, solver = _normalized_problem(name)
    best, trace, iterations, _ = _solve_normalized(d, mu, stencil, p, solver)
    ref_iterations, seen = _reference_pdhg(d, mu, stencil, p, solver)
    assert iterations == ref_iterations
    # same trajectory: the best energy after every step agrees
    ref_trace = np.minimum.accumulate([e for _, e in seen])
    assert np.allclose(trace, ref_trace, rtol=1e-12, atol=0.0)
    # the reference's minimizer: the last iterate of the lowest energy
    ref_best = min(reversed(seen), key=lambda item: item[1])[0]
    assert float(np.max(np.abs(best - ref_best))) <= 1e-12


def _dense_p2_minimizer(d, stencil):
    """Minimizer of 1/2 |x - d|^2 + sum w (K x)^2, the solution of
    (I + 2 K^T W K) x = d: a dense solve refined twice with residuals taken
    in extended precision, so that it stays accurate for large weights."""
    wn = stencil.pair_weights()

    def apply(x, dtype):
        x = x.astype(dtype)
        g = stencil.gather(x, out=np.empty(stencil.size, dtype))
        return x + 2.0 * stencil.scatter(wn * g, out=np.empty(d.size, dtype))

    a = np.stack([apply(e, float) for e in np.eye(d.size)], axis=1)
    x = np.linalg.solve(a, d)
    for _ in range(2):
        r = d.astype(np.longdouble) - apply(x, np.longdouble)
        x = x + np.linalg.solve(a, r.astype(float))
    return x


def _assert_certified_p2(d, mu, stencil, solver):
    """A p = 2 solve converges, lies within its gap certificate
    |x - x*| <= 1e-13 (1 + max |d|) of the dense solution, keeps a
    non-increasing trace, and its prox leaves exactly 0.0 on every wrapped or
    zero-weight pair of every dual vector it scatters."""
    exact = _dense_p2_minimizer(d, stencil)
    zero = stencil.pair_weights() == 0.0
    scatter = stencil.scatter
    scattered = []

    def spy(q, out=None):
        scattered.append(bool(np.all(q[zero] == 0.0)))
        return scatter(q, out=out)

    stencil.scatter = spy
    x, trace, _, converged = _solve_normalized(d, mu, stencil, 2.0, solver)
    assert converged
    assert np.linalg.norm(x - exact) <= 1e-13 * (1.0 + np.max(np.abs(d)))
    assert np.all(np.diff(trace) <= 0.0)
    assert all(scattered)


@pytest.mark.parametrize("name", ["pinned-closed-1d-box-p2", "disc32-p2",
                                  "oracle-many-offsets-p2"])
def test_pdhg_p2_matches_dense_solve(name):
    d, mu, stencil, p, solver = _normalized_problem(name)
    assert p == 2.0
    _assert_certified_p2(d, mu, stencil, solver)


@st.composite
def _p2_inputs(draw):
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 9))
    offsets = draw(st.lists(st.tuples(*[st.integers(-n - 1, n + 1)] * dim),
                            min_size=1, max_size=3))
    weight = st.just(0.0) | st.floats(0.0, 1e3)
    weights = draw(st.lists(weight, min_size=len(offsets), max_size=len(offsets)))
    d = draw(arrays(np.float64, n ** dim, elements=st.floats(-1e2, 1e2)))
    return d, Stencil((n,) * dim, list(zip(offsets, weights)))


@settings(max_examples=60, deadline=None)
@given(_p2_inputs())
def test_pdhg_p2_certificate_property(case):
    d, stencil = case
    _assert_certified_p2(d, 1.0 / d.size, stencil, SolverConfig())


# ---------------------------------------------------------------------------
# gamma experiment


def test_gamma_constant_data_all_zero():
    data = DataTerm.of(np.full(32, 0.7))
    rows = gamma_experiment(data, 1.0, 0.01, [2, 4, 8])
    assert [r.scale for r in rows] == [2, 4, 8]
    # zero up to the rounding of the cumulative sums in the limit oracle
    assert all(r.distance <= 1e-13 for r in rows)


def test_gamma_step_distances_shrink():
    rng = np.random.default_rng(30)
    x = np.arange(64) / 64
    data = DataTerm.of((x >= 0.5).astype(float) + 0.1 * rng.standard_normal(64))
    rows = gamma_experiment(data, 1.0, 0.004, [2, 4, 8, 16],
                            SolverConfig(tol=1e-14, max_iter=30_000))
    dist = [r.distance for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(dist, dist[1:]))
    assert dist[-1] <= dist[0] / 2


def test_gamma_2d_distances_are_to_the_finest_scale():
    # in 2D the limit is the finest scale's own minimizer, so its row reads 0
    data = DataTerm.of(_disc_image(8, 31))
    rows = gamma_experiment(data, 1.0, 0.01, [2, 4, 8], SolverConfig(tol=1e-10))
    dist = [r.distance for r in rows]
    assert all(r.converged for r in rows)
    assert all(b <= a for a, b in zip(dist, dist[1:]))
    assert dist[-1] == 0.0


def test_gamma_validation():
    data = DataTerm.of(np.zeros(16))
    with pytest.raises(ValueError):
        gamma_experiment(data, 2.0, 0.01, [2, 4])
    with pytest.raises(ValueError):
        gamma_experiment(data, 1.0, 0.01, [4, 2])
    with pytest.raises(ValueError):
        gamma_experiment(data, 1.0, 0.01, [2, 32])
