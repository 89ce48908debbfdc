"""Pinned outputs: refactors of the regularizer and the oracle must leave the
minimizers, iteration counts, printed verification values and Monte Carlo
oracle reports bit for bit unchanged for the same inputs and seeds.

The digests hash the raw float64 bytes, so they also depend on the platform's
floating-point summation; they were recorded with numpy 2.4 on x86-64.
"""

import hashlib

import numpy as np
import pytest

from nltv import (
    DataTerm,
    EnergyParams,
    Kernel,
    KernelKind,
    OracleConfig,
    SolverConfig,
    Spline1D,
    denoise,
    oracle_eval,
)
from nltv.cli import main
from nltv.minimize import SCHEME_CLOSED_1D, SCHEME_CLOSED_2D, SCHEME_ORACLE
from nltv.oracle import geometric_factor_1d, geometric_factor_2d


def _signal(n, seed):
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    return (x >= 0.4).astype(float) + 0.2 * rng.standard_normal(n)


def _case(name):
    if name == "closed-1d-box":
        d = _signal(64, 1)
        return d, (1.0, 0.01, Kernel(KernelKind.BOX1D, 64), SCHEME_CLOSED_1D), SolverConfig()
    if name == "closed-1d-box2":
        d = _signal(64, 2)
        return (d, (1.0, 0.01, Kernel(KernelKind.BOX1D_WIDE, 64), SCHEME_CLOSED_1D),
                SolverConfig())
    if name == "closed-1d-box-p2":
        d = _signal(48, 3)
        return d, (2.0, 2e-3, Kernel(KernelKind.BOX1D, 48), SCHEME_CLOSED_1D), SolverConfig()
    if name == "closed-2d-disc":
        rng = np.random.default_rng(4)
        ii, jj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        d = ((ii - 7.5) ** 2 + (jj - 7.5) ** 2 < 25).astype(float)
        d = d + 0.1 * rng.standard_normal((16, 16))
        return (d, (1.0, 2e-3, Kernel(KernelKind.DISC2D, 16), SCHEME_CLOSED_2D),
                SolverConfig(tol=1e-7))
    if name == "oracle-1d":
        d = _signal(32, 5)
        return d, (1.0, 0.01, Kernel(KernelKind.BOX1D, 8), SCHEME_ORACLE), SolverConfig()
    if name == "smooth-1d-box":
        d = _signal(32, 6)
        return (d, (1.0, 0.01, Kernel(KernelKind.BOX1D, 32), SCHEME_CLOSED_1D),
                SolverConfig(method="smooth", tol=1e-10))
    raise KeyError(name)


# iteration count and sha256 of minimizer.tobytes(); the p = 1 primal-dual pins
# were re-recorded, with unchanged iteration counts, when one iteration went to
# one scatter and one gather (the minimizers moved by at most 4.4e-16, see
# test_pdhg_matches_reference_iteration). closed-1d-box2, closed-2d-disc and
# oracle-1d were re-recorded when the step bound went from 2 max_degree to the
# stencil symbol (8 -> 6.249, 16 -> 12 and 16 -> 11); the minimizers moved by
# 2.2e-7, 3.5e-6 and 5.8e-8. The 1D box bound stays 4, so its pins did not move.
# closed-1d-box-p2 was re-recorded when p = 2 moved from the Chambolle-Pock loop
# to the dual loop of p = 1 with constant momentum and a duality-gap stop
# (39 -> 22 iterations); its minimizer moved by 5.8e-14.
GOLDEN = {
    "closed-1d-box":
        (293, "04b556493a5f5e54ac26ecaca9bf01fc8792011555a92df884dd82c5ca178c87"),
    "closed-1d-box2":
        (197, "7001e9370ec99e11ff1ce35bb025f92a204d0ca201b1fcc6570975358274669f"),
    "closed-1d-box-p2":
        (22, "3405b350341f4f86eb0658c63e6a05bdeb6a9b28c592fc3920a348b3eac411fa"),
    "closed-2d-disc":
        (67, "2080d09ebf0597bdbb529a02d627963837dc5841a304aaea59ab452e2e1363da"),
    "oracle-1d":
        (86, "13fe1792be696f24ad191354c3ff77764f6750cc24c892f1e0b6d82692e2aff9"),
    "smooth-1d-box":
        (1427, "09ff1d627bcb00dfc4a334e801d105a73e3bf4b33b1edc96c92a1d00c0676097"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_denoise_minimizer_is_pinned(name):
    d, (p, alpha, kernel, scheme), solver = _case(name)
    params = EnergyParams(p=p, alpha=alpha, kernel=kernel, grid_n=d.shape[0],
                          scheme=scheme)
    res = denoise(DataTerm.of(d), params, solver)
    digest = hashlib.sha256(res.minimizer.tobytes()).hexdigest()
    assert (res.iterations, digest) == GOLDEN[name]


VERIFY_GOLDEN = {
    "image": ("closed-form 1.76867588873\n"
              "oracle      1.77296276499\n"
              "rel-error   2.424e-03 (tolerance 1.000e-02)\n"),
    "pc-wide": ("closed-form 3.13847729425\n"
                "oracle      3.13879844184\n"
                "rel-error   1.023e-04 (tolerance 1.000e-02)\n"),
    "spline": ("closed-form 7.03367238716\n"
               "oracle      7.03676587123\n"
               "rel-error   4.398e-04 (tolerance 1.000e-02)\n"),
}


# --n and --samples per family; the spline's 75,000 points per stratum span
# more than one block of the Spline1D lookup
VERIFY_ARGS = {"image": ("6", "40000"), "pc-wide": ("12", "40000"),
               "spline": ("24", "1200000")}


@pytest.mark.parametrize("family", sorted(VERIFY_GOLDEN))
def test_verify_mc_output_is_pinned(family, capsys):
    n, samples = VERIFY_ARGS[family]
    assert main(["verify", "--family", family, "--n", n, "--samples", samples,
                 "--seed", "3", "--method", "mc"]) == 0
    assert capsys.readouterr().out == VERIFY_GOLDEN[family]


def _mc_case(name):
    if name == "spline":
        nodes = np.random.default_rng(9).uniform(0.0, 1.0, 17)
        return (Spline1D(nodes), Kernel(KernelKind.BOX1D, 16),
                OracleConfig(method="mc", samples=300_000, seed=5))
    if name == "callable-2d-square":
        return (lambda x, y: np.sin(3 * x) + y * y, Kernel(KernelKind.SQUARE2D, 8),
                OracleConfig(method="mc", samples=50_000, seed=4))
    if name == "callable-2d-disc":
        return (lambda x, y: x, Kernel(KernelKind.DISC2D, 32),
                OracleConfig(method="mc", samples=50_000, seed=7))
    raise KeyError(name)


# float.hex() of the oracle's value and stderr_estimate
MC_GOLDEN = {
    "spline": ("0x1.0dc1047614d97p+2", "0x1.c6b53b9d32dfep-8"),
    "callable-2d-square": ("0x1.31bae0030f1dep+0", "0x1.0c6224b85ee7dp-8"),
    "callable-2d-disc": ("0x1.3e13cc4fc3eb2p-1", "0x1.1cd04c49df1e7p-9"),
}


@pytest.mark.parametrize("name", sorted(MC_GOLDEN))
def test_mc_oracle_report_is_pinned(name):
    report = oracle_eval(*_mc_case(name))
    assert (report.value.hex(), report.stderr_estimate.hex()) == MC_GOLDEN[name]


# float.hex() of (value, error) of Monte Carlo geometric factors: the 1D
# adjacent pair at p = 1.5 (singular, sampled in two pieces), a 1D pair at
# distance 2 and two 2D square-kernel offsets
FACTOR_GOLDEN = {
    "1d-singular": ("0x1.a81f9d3bbadd0p+1", "0x1.82a3fb40e60e6p-13"),
    "1d-d2": ("0x1.5f683c419f2a1p-2", "0x1.989e58143e2bcp-15"),
    "2d-square-10": ("0x1.7ad421048c3c3p-6", "0x1.ce3b3c457f888p-15"),
    "2d-square-21": ("0x1.619f1dce26b15p-8", "0x1.1ec0202a78ed6p-17"),
}


def _factor(name):
    if name.startswith("1d"):
        cfg = OracleConfig(method="mc", p=1.5, samples=50_000, seed=3)
        return geometric_factor_1d(1 if name == "1d-singular" else 2, 8,
                                   Kernel(KernelKind.BOX1D, 4), cfg)
    cfg = OracleConfig(method="mc", samples=50_000, seed=3)
    return geometric_factor_2d((1, 0) if name == "2d-square-10" else (2, 1), 6,
                               Kernel(KernelKind.SQUARE2D, 3), cfg)


@pytest.mark.parametrize("name", sorted(FACTOR_GOLDEN))
def test_mc_geometric_factor_is_pinned(name):
    assert tuple(float(v).hex() for v in _factor(name)) == FACTOR_GOLDEN[name]
