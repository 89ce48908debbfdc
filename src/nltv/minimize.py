"""Assembly and minimization of the regularized denoising energy.

The energy is

    F(f) = cell_measure * 1/2 * sum (f - data)^2  +  alpha / K_{p,dim} * R(f)

where R is the nonlocal functional of the configured scheme. For the schemes
handled here R reduces to a weighted sum of |f_i - f_j|^p over the cell pairs
at a few fixed offsets (a :class:`~nltv.stencil.Stencil`), so minimization is
a graph-TV (p = 1) or graph-Dirichlet (p = 2) problem:

* ``pd``: accelerated ascent on the dual problem, one dual variable per pair,
  clipped to [-w, w] (p = 1) or scaled (p = 2). Exact nonsmooth handling, no
  smoothing bias. p = 1 stops on the energy plateau of ``tol``/``plateau``,
  p = 2 on a duality-gap certificate of the distance to the minimizer.
* ``smooth``: quasi-Newton descent with line search on the smoothed surrogate
  |t| ~ sqrt(t^2 + eps^2); kept as an independent cross-check of ``pd``.

The reported trace, the best energy so far, is non-increasing. The minimizer
is the lowest-energy iterate, except that a certified p = 2 solve returns its
last iterate, whose energy lies within the gap of the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import Kernel, KernelKind, kpn
from .oracle import GAUSS, OracleConfig, oracle_terms
from .schemes_1d import BOX2_TERMS, BOX_TERMS
from .schemes_2d import stencil_weights
from .stencil import Stencil, blocked_dot

SCHEME_CLOSED_1D = "closed_form_1d"
SCHEME_CLOSED_2D = "closed_form_2d"
SCHEME_ORACLE = "oracle"

_SCHEMES = (SCHEME_CLOSED_1D, SCHEME_CLOSED_2D, SCHEME_ORACLE)

PRIMAL_DUAL = "pd"
SOLVERS = (PRIMAL_DUAL, "smooth")  # the methods of SolverConfig, in the CLI's order
PD_EXPONENTS = (1.0, 2.0)  # the exponents p that the primal-dual solver handles

ORACLE_POINTS = 12  # Gauss points per cell axis of the oracle scheme's weights
SMOOTH_EPS = 1e-8  # eps of the smooth solver's |t| ~ sqrt(t^2 + eps^2)


@dataclass(frozen=True)
class EnergyParams:
    """Parameters (p, alpha, kernel, grid) defining the discrete energy.

    The closed-form schemes require the kernel scale to match the grid; for
    p other than 1 their pair structure is kept and the differences are
    raised to the p-th power. The oracle scheme decouples the kernel scale
    from the grid and supports any p >= 1 for which the functional is finite.
    """

    p: float
    alpha: float
    kernel: Kernel
    grid_n: int
    scheme: str

    def __post_init__(self):
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.grid_n < 1:
            raise ValueError("grid_n must be positive")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        dim = {SCHEME_CLOSED_1D: 1, SCHEME_CLOSED_2D: 2}.get(self.scheme)  # None for the oracle
        if dim and (self.kernel.dim != dim or self.kernel.n != self.grid_n):
            raise ValueError(f"closed-form {dim}D scheme needs a matched {dim}D kernel")
        if dim == 2 and self.grid_n < 2:
            raise ValueError("the 2D scheme needs grid_n >= 2")
        if self.scheme == SCHEME_ORACLE and self.kernel.dim == 1 and self.p >= 2:
            # the nonlocal functional of a discontinuous piecewise constant is
            # infinite from p = 2 on; the closed-form pair structure with p-th
            # powers is the finite discretization of the limit problem
            raise ValueError("oracle weights diverge for p >= 2 on 1D grids; "
                             "use a closed-form scheme")

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def oracle_points(self) -> int:
        """:data:`ORACLE_POINTS`, which ``perfbench/replay.py`` reads here."""
        return ORACLE_POINTS


@dataclass(frozen=True)
class DataTerm:
    """Noisy data on the grid, which fixes :attr:`cell_measure`."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim not in (1, 2):
            raise ValueError("data must be a vector or a square matrix")
        if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
            raise ValueError("2D data must be square")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data must be finite")
        object.__setattr__(self, "data", arr)

    @classmethod
    def of(cls, data) -> "DataTerm":
        return cls(data=data)

    @property
    def grid_n(self) -> int:
        return self.data.shape[0]

    @property
    def cell_measure(self) -> float:
        """n^-dim, the Lebesgue measure of one cell of the n-per-axis grid."""
        return float(self.grid_n) ** (-self.data.ndim)


@dataclass
class SolverConfig:
    """Iteration policy: stop at ``max_iter``, or once the relative energy
    decrement stays below ``tol`` for ``plateau`` consecutive iterations
    (primal-dual p = 2 solves stop on a duality-gap certificate instead).
    ``init`` is the smooth solver's start; ``pd`` starts from the data."""

    method: str = PRIMAL_DUAL
    tol: float = 1e-8
    max_iter: int = 100_000
    plateau: int = 5
    init: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.method not in SOLVERS:
            raise ValueError(f"solver method must be {' or '.join(map(repr, SOLVERS))}")
        if not 0 < self.tol < math.inf or self.max_iter < 1 or self.plateau < 1:
            raise ValueError("solver tolerances must be positive and finite")
        if self.init is not None and self.method == PRIMAL_DUAL:
            raise ValueError("the primal-dual solver starts from the data; "
                             "init is the smooth solver's start")
        if self.init is not None and not np.all(np.isfinite(self.init)):
            raise ValueError("init must be finite")


@dataclass
class DenoiseResult:
    minimizer: np.ndarray
    energy_trace: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class GammaRow:
    scale: int
    distance: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# the regularizer as an (offset, weight) stencil


def _regularizer_terms(params: EnergyParams) -> list:
    # the (offset, weight) terms with R(f) = sum w |f_i - f_{i+o}|^p
    n = params.grid_n
    kind = params.kernel.kind
    if params.scheme == SCHEME_CLOSED_1D:
        if kind is KernelKind.BOX1D_WIDE and n < 2:
            raise ValueError("the double-width scheme needs n >= 2")
        return list(BOX_TERMS if kind is KernelKind.BOX1D else BOX2_TERMS)
    if params.scheme == SCHEME_CLOSED_2D:
        w = stencil_weights(kind, n)
        return [((0, 1), w.lateral), ((1, 0), w.lateral),
                ((1, 1), w.diagonal), ((1, -1), w.diagonal)]
    # oracle scheme: weights from numerically integrated geometric factors
    cfg = OracleConfig(method=GAUSS, points_per_cell_axis=ORACLE_POINTS, p=params.p)
    return oracle_terms(params.kernel, n, cfg)


def _problem(data: DataTerm, params: EnergyParams):
    """The cell-normalized problem of every solve, min 1/2 |x - d|^2 +
    sum w |x_i - x_{i+o}|^p, whose minimizer is that of the original energy:
    the data vector d, the stencil of weights alpha / K_{p,dim} * w / mu (mu
    the cell measure) and ``total_energy(x, diffs=None)``, the original
    energy that :func:`energy` and every trace report (``diffs`` is
    ``stencil.gather(x)`` if the caller has it)."""
    if data.grid_n != params.grid_n:
        raise ValueError("data grid does not match params.grid_n")
    if data.data.ndim != params.dim:
        raise ValueError("data dimensionality does not match the kernel")
    d, mu, p = data.data.ravel().astype(float), data.cell_measure, params.p
    scale = params.alpha / kpn(p, params.dim).value
    stencil = Stencil(data.data.shape, [(off, scale * w / mu)
                                        for off, w in _regularizer_terms(params)])

    def total_energy(x, diffs=None):
        return mu * (0.5 * float(np.sum((x - d) ** 2)) + stencil.value(x, p, diffs))

    return d, stencil, total_energy


def energy(f, data: DataTerm, params: EnergyParams) -> float:
    """Value of the regularized denoising energy at ``f``, by the formula of
    every solve's trace."""
    arr = np.asarray(f, dtype=float)
    if arr.shape != data.data.shape:
        raise ValueError(f"shape mismatch: {arr.shape} vs {data.data.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("f must be finite")
    return _problem(data, params)[2](arr.ravel())


# ---------------------------------------------------------------------------
# solvers


class _Tracker:
    """Monotone bookkeeping: the trace records the best energy so far and the
    minimizer is only replaced by energy-improving iterates. Termination
    watches the relative energy change of the raw iterates, which decays to
    zero for a convergent (possibly oscillating) method."""

    def __init__(self, f0: np.ndarray, e0: float, tol: float, plateau: int):
        self.best = f0.copy()
        self.best_energy = e0
        self.trace = [e0]
        self.tol = tol
        self.plateau = plateau
        self._last = e0
        self._flat = 0

    def step(self, f: np.ndarray, e: float) -> bool:
        # ties accepted: near the optimum the energy is bit-flat while the
        # iterates keep contracting, and the latest of equals is the closest
        if e <= self.best_energy:
            self.best_energy = e
            self.best = f.copy()
        self.trace.append(self.best_energy)
        change = abs(e - self._last) / max(abs(self.best_energy), 1e-300)
        self._last = e
        self._flat = self._flat + 1 if change < self.tol else 0
        return self._flat >= self.plateau


def _solve(d, stencil: Stencil, total_energy, p, solver: SolverConfig):
    """Shared scaffold of both solvers for a cell-normalized problem of
    :func:`_problem`, whose ``total_energy`` gives every energy reported.
    ``smooth`` starts from ``solver.init`` if given, ``pd`` from the data.

    Returns (minimizer, energy trace, iterations, converged).
    """
    f0 = d if solver.init is None else np.asarray(solver.init, dtype=float).ravel()
    if f0.size != d.size:
        raise ValueError("init must have the same size as the data")
    if stencil.op_norm_sq == 0.0:
        # K = 0 (no pair of the grid, or only zero offsets): the data minimizes
        return d.copy(), [total_energy(d)], 0, True
    tracker = _Tracker(f0, total_energy(f0), solver.tol, solver.plateau)
    run = _pdhg if solver.method == PRIMAL_DUAL else _smoothed_descent
    iterations, converged = run(d, stencil, p, solver, tracker, total_energy)
    return tracker.best, tracker.trace, iterations, converged


def _pdhg(d, stencil: Stencil, p, solver, tracker, total_energy):
    """Accelerated forward-backward splitting on the dual problem; the
    primal problem is 1-strongly convex.

    Each stencil pair carries one dual variable q; the primal is
    x = d - K^T q, and the dual problem min_q 1/2 |K^T q - d|^2 + h(q), h the
    conjugate of the pair term. For p = 1, h is the indicator of |q| <= w and
    its prox the clip; for p = 2, h is sum q^2 / (4w) and its prox with step
    1/L the scaling q w / (w + 1/(2L)). Both leave 0 where w = 0. The bound
    L = :attr:`Stencil.op_norm_sq` >= |K|^2 makes the step 1/L admissible.
    K is linear, so the momentum point moves forward to
    z_k + c (z_k - z_{k-1}) with z_k = q_k + K x_k / L.

    p = 1 takes the FISTA momentum (Beck and Teboulle, 2009) with function
    restart on the dual objective and stops on the energy plateau of
    ``solver.tol`` and ``solver.plateau``. For p = 2, h is mu = 1/(2 max w)
    strongly convex; the constant momentum (1 - sqrt(s)) / (1 + sqrt(s)),
    s = mu / (L + mu), converges linearly (Chambolle and Pock, Acta Numerica
    2016), so p = 2 keeps it and never restarts: FISTA with function restart
    restarted 23 to 280 times, took 1.4 to 3.7 times the iterations (707 vs
    220 on a 128^2 disc at alpha 2e-2) and did not certify a stiff 4-cell
    case in 20,000 iterations, which constant momentum certifies in 5,484.
    p = 2 stops on the duality gap of the cell-normalized problem, g = K x:

        G = P(x) - D(q) = sum w (g - q / (2w))^2 >= 1/2 |x - x*|^2,

    a sum without cancellation, once sqrt(2G) <= 1e-13 (1 + max |d|), and
    returns that certified x, not the lowest-energy iterate: near the optimum
    the energies of successive iterates tie at about eps E, far above G.
    """
    gather, scatter = stencil.gather, stencil.scatter
    step = 1.0 / stencil.op_norm_sq
    if p != 1:
        wn = stencil.pair_weights()
        # 1/(2w), 0 where w = 0 and where it would overflow (subnormal w,
        # whose term of the gap lies below the normal range anyway)
        half_inv_w = np.divide(0.5, wn, out=np.zeros_like(wn),
                               where=wn >= np.finfo(float).tiny)
        factor = wn / (wn + 0.5 * step)  # the prox, 0 where w = 0
        # sqrt(s) = sqrt(mu / (L + mu)), written to stay finite for any w
        root = math.sqrt(1.0 / (1.0 + 2.0 * stencil.op_norm_sq * float(np.max(wn))))
        momentum = (1.0 - root) / (1.0 + root)
        gap_stop = 0.5 * (1e-13 * (1.0 + float(np.max(np.abs(d))))) ** 2
    z = gather(d) * step  # q_0 = 0, x_0 = d
    z_prev = z.copy()
    q, g = np.empty_like(z), np.empty_like(z)
    x, kq = np.empty_like(d), np.empty_like(d)

    def take_prox():
        # q = prox(q), x = d - K^T q, g = K x
        if p == 1:
            stencil.project(q)
        else:
            np.multiply(q, factor, out=q)
        np.subtract(d, scatter(q, out=kq), out=x)
        gather(x, out=g)

    t_acc = 1.0
    dual_last = math.inf
    for it in range(1, solver.max_iter + 1):
        if p == 1:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
            momentum = (t_acc - 1.0) / t_next
        # the momentum point z + c (z - z_prev)
        np.subtract(z, z_prev, out=q)
        q *= momentum
        q += z
        take_prox()
        if p == 1:
            dual_obj = 0.5 * blocked_dot(x, x)
            if dual_obj > dual_last:
                # momentum overshot: restart from the last point
                t_next = 1.0
                np.copyto(q, z)
                take_prox()
                dual_obj = 0.5 * blocked_dot(x, x)
            t_acc, dual_last = t_next, dual_obj
        # z = q + g / L into the buffer of z_prev; the product with 1/L
        # costs half the quotient and equals it when L is a power of two
        np.multiply(g, step, out=z_prev)
        z_prev += q
        z, z_prev = z_prev, z
        if tracker.step(x, total_energy(x, g)) and p == 1:
            return it, True
        if p != 1 and blocked_dot(np.square(g - q * half_inv_w), wn) <= gap_stop:
            tracker.best = x  # the certified iterate
            return it, True
    return solver.max_iter, False


def _smoothed_descent(d, stencil: Stencil, p, solver, tracker, total_energy):
    """Cross-validation solver: descent with line search on the smoothed
    surrogate with |t| ~ sqrt(t^2 + eps^2), driven by L-BFGS (plain gradient
    steps cannot traverse the 1/eps-stiff kink regions in any reasonable
    iteration budget), from the tracker's start. Works for any p >= 1."""
    from scipy.optimize import minimize as _sp_minimize

    eps = SMOOTH_EPS
    wn = stencil.pair_weights()

    def fun(x):
        diff = stencil.gather(x)
        core = (diff * diff + eps * eps) ** (p / 2.0)
        val = 0.5 * float(np.sum((x - d) ** 2)) + float(np.sum(wn * core))
        slope = wn * p * diff * (diff * diff + eps * eps) ** (p / 2.0 - 1.0)
        to_base, to_partner = stencil.scatter_ends(slope)
        g = (x - d)
        g += to_base
        g -= to_partner
        return val, g

    def on_iterate(xk):
        tracker.step(xk, total_energy(xk))

    res = _sp_minimize(fun, tracker.best, jac=True, method="L-BFGS-B",
                       callback=on_iterate,
                       options=dict(maxiter=solver.max_iter,
                                    ftol=min(solver.tol, 1e-12),
                                    gtol=1e-14, maxcor=30))
    tracker.step(np.asarray(res.x, dtype=float), total_energy(res.x))
    return int(res.nit), bool(res.success)


def denoise(data: DataTerm, params: EnergyParams,
            solver: Optional[SolverConfig] = None) -> DenoiseResult:
    """Minimize the denoising energy over the coefficient vector.

    Non-convergence within ``max_iter`` is reported through the ``converged``
    flag, never an exception. The returned trace is non-increasing and the
    minimizer never has higher energy than the starting point, except that a
    converged primal-dual p = 2 solve returns its certified iterate (see
    :func:`_pdhg`).
    """
    solver = solver if solver is not None else SolverConfig()
    if solver.method == PRIMAL_DUAL and params.p not in PD_EXPONENTS:
        raise ValueError("the primal-dual solver handles p in {1, 2}; "
                         "use the smooth solver for other exponents")
    d, stencil, total_energy = _problem(data, params)
    best, trace, iterations, converged = _solve(d, stencil, total_energy, params.p, solver)
    return DenoiseResult(minimizer=best.reshape(data.data.shape),
                         energy_trace=np.asarray(trace),
                         iterations=iterations,
                         converged=converged)


# ---------------------------------------------------------------------------
# exact 1D oracles for the limit problem


def taut_string_1d(data, lam: float) -> np.ndarray:
    """Exact minimizer of 1/2 sum (u_i - d_i)^2 + lam * sum |u_{i+1} - u_i|.

    Walks the taut string through the tube of half-width ``lam`` around the
    cumulative sums, pinned at both ends. On a violation the string bends at
    the last touching bound and the walk restarts from that knot; each knot
    strictly advances, so the construction terminates.
    """
    d = np.asarray(data, dtype=float).ravel()
    if not lam >= 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    if not np.all(np.isfinite(d)):
        raise ValueError("data must be finite")
    n = d.size
    if n == 0 or lam == 0.0:
        return d.copy()
    s = np.concatenate([[0.0], np.cumsum(d)])
    lo = s - lam
    hi = s + lam
    lo[0] = hi[0] = 0.0
    lo[-1] = hi[-1] = s[-1]
    u = np.empty(n)
    a, va = 0, 0.0
    while a < n:
        smax = math.inf
        smin = -math.inf
        imax = imin = a + 1
        bend = None
        for i in range(a + 1, n + 1):
            span = i - a
            shi = (hi[i] - va) / span
            slo = (lo[i] - va) / span
            hi_viol = shi < smin
            lo_viol = slo > smax
            if hi_viol or lo_viol:
                if hi_viol and (not lo_viol or imin <= imax):
                    bend = (imin, lo[imin], smin)
                else:
                    bend = (imax, hi[imax], smax)
                break
            if shi < smax:
                smax, imax = shi, i
            if slo > smin:
                smin, imin = slo, i
        if bend is None:
            u[a:] = (s[-1] - va) / (n - a)
            break
        knot, value, slope = bend
        u[a:knot] = slope
        a, va = knot, value
    return u


def gamma_experiment(data: DataTerm, p: float, alpha: float, n_list,
                     solver: Optional[SolverConfig] = None) -> list:
    """Sweep the kernel scale at fixed grid; report the L1 distance of each
    minimizer to the limit-problem minimizer.

    Only p = 1 admits the sweep on piecewise-constant grids (for p >= 2 the
    nonlocal functional of a discontinuous piecewise constant is infinite).
    In 1D the limit minimizer is the exact taut-string solution; in 2D no
    cheap exact limit is available and distances are taken against the
    finest-scale minimizer.
    """
    if p != 1:
        raise ValueError("the kernel-scale sweep is defined for p = 1; the "
                         "functional is infinite on piecewise constants for "
                         "p >= 2")
    scales = [int(v) for v in n_list]
    if not scales or any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("kernel scales must be strictly increasing")
    if scales[0] < 1 or scales[-1] > data.grid_n:
        raise ValueError("kernel scales must lie in [1, grid resolution]")
    dim = data.data.ndim
    kind = KernelKind.BOX1D if dim == 1 else KernelKind.DISC2D
    results = []
    for scale in scales:
        params = EnergyParams(p=p, alpha=alpha, kernel=Kernel(kind, scale),
                              grid_n=data.grid_n, scheme=SCHEME_ORACLE)
        results.append(denoise(data, params, solver))
    if dim == 1:
        lam = alpha / (kpn(1, 1).value * data.cell_measure)
        limit = taut_string_1d(data.data, lam)
    else:
        limit = results[-1].minimizer
    rows = []
    for scale, res in zip(scales, results):
        dist = data.cell_measure * float(np.sum(np.abs(res.minimizer - limit)))
        rows.append(GammaRow(scale=scale, distance=dist,
                             iterations=res.iterations,
                             converged=res.converged))
    return rows
