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
# test_pdhg_matches_reference_iteration)
GOLDEN = {
    "closed-1d-box":
        (293, "04b556493a5f5e54ac26ecaca9bf01fc8792011555a92df884dd82c5ca178c87"),
    "closed-1d-box2":
        (206, "24501cd580bc18a1280ad6f2a0a9426d8ff7b3ab246fcd3a5d1fa956df49fa65"),
    "closed-1d-box-p2":
        (39, "8d573ff911aa4025af5be4bd60f973ddcfd09df8bdd2f5308ef6e4b51f41fe04"),
    "closed-2d-disc":
        (79, "1eaedd01958fe658b75526eceecbd50dc323d837476ad6b99ea680ccaa5e4888"),
    "oracle-1d":
        (77, "8abbf5546ce80d3d612206c6bbce8075523f553c1b9741106d57f79d069df4d1"),
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
               "oracle      7.04208970098\n"
               "rel-error   1.197e-03 (tolerance 1.000e-02)\n"),
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
    "spline": ("0x1.0d7ca2e6b78dep+2", "0x1.c7369d3c4aba2p-8"),
    "callable-2d-square": ("0x1.31bae0030f1dep+0", "0x1.0c6224b85ee7dp-8"),
    "callable-2d-disc": ("0x1.3e13cc4fc3eb2p-1", "0x1.1cd04c49df1e7p-9"),
}


@pytest.mark.parametrize("name", sorted(MC_GOLDEN))
def test_mc_oracle_report_is_pinned(name):
    report = oracle_eval(*_mc_case(name))
    assert (report.value.hex(), report.stderr_estimate.hex()) == MC_GOLDEN[name]
