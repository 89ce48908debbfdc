"""Nonlocal double-integral approximations of TV and Sobolev seminorms."""

from .kernels import Kernel, KernelKind, KpnConstant, kernel_eval, kpn
from .schemes_1d import (
    HaarIndex,
    PiecewiseConstant1D,
    Spline1D,
    eval_haar,
    eval_pc_box,
    eval_pc_box_wide,
    eval_spline,
    haar_branches,
    haar_function,
)
from .schemes_2d import (
    Image2D,
    StencilWeights,
    eval_image,
    stencil_weights,
)
from .stencil import Stencil
from .oracle import EvalReport, OracleConfig, fit_stencil, oracle_eval
from .minimize import (
    DataTerm,
    DenoiseResult,
    EnergyParams,
    GammaRow,
    SolverConfig,
    denoise,
    energy,
    gamma_experiment,
    taut_string_1d,
)

__version__ = "0.1.0"

__all__ = [
    "Kernel", "KernelKind", "KpnConstant", "kernel_eval", "kpn",
    "PiecewiseConstant1D", "Spline1D", "HaarIndex", "eval_pc_box",
    "eval_pc_box_wide", "eval_spline", "eval_haar", "haar_branches",
    "haar_function",
    "Image2D", "StencilWeights", "stencil_weights", "eval_image",
    "Stencil", "OracleConfig", "EvalReport", "oracle_eval", "fit_stencil",
    "EnergyParams", "DataTerm", "SolverConfig", "DenoiseResult", "GammaRow",
    "energy", "denoise", "taut_string_1d", "gamma_experiment",
    "__version__",
]
