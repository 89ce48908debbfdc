"""Traced replay of one benchmark request, and the fixed layer probes.

Run in a fresh interpreter so that imports and the oracle's factor cache start
cold, as they do for a command-line user:

    python3 perfbench/replay.py replay SPEC.json OUT.json
    python3 perfbench/replay.py probes SPEC.json OUT.json

``replay`` repeats what one ``nltv`` command of the workload does, through the
package's public functions, with a span around every call into a layer.
``probes`` times single layer calls at fixed sizes. Spans are kept in memory
and written to OUT.json when the process ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import sys
import time

PROBE_CALLS = 5


class Tracer:
    """Spans (name, start, end, parent index) recorded in memory."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._open[-1] if self._open else None})
        self._open.append(index)
        try:
            yield index
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._open.pop()

    def duration(self, index: int) -> float:
        return self.spans[index]["end"] - self.spans[index]["start"]


def denoise_problem(spec, values):
    """The data term and energy ``nltv denoise`` derives from its flags for an
    image (kernel scale matched to the grid), built from public names only."""
    import nltv
    from nltv.minimize import SCHEME_CLOSED_2D

    n = values.shape[0]
    params = nltv.EnergyParams(
        p=1.0, alpha=spec["alpha"], kernel=nltv.Kernel(nltv.KernelKind(spec["kernel"]), n),
        grid_n=n, scheme=SCHEME_CLOSED_2D)
    return nltv.DataTerm.of(values), params


def _needed_offsets(params):
    """Canonical cell offsets within kernel reach: the oracle factors the
    solver's regularizer needs."""
    n = params.grid_n
    h = 1.0 / n
    r = params.kernel.support_radius
    reach = int(math.floor(r / h)) + 1
    offsets = set()
    for dx in range(reach + 1):
        for dy in range(-reach, reach + 1):
            if dx == 0 and dy <= 0:
                continue
            if math.hypot(max(dx - 1, 0) * h, max(abs(dy) - 1, 0) * h) < r:
                offsets.add(tuple(sorted((dx, abs(dy)), reverse=True)))
    return sorted(offsets)


def replay_denoise(tr: Tracer, spec: dict, values: dict) -> None:
    import nltv
    from nltv import cli

    with tr.span("cli.read_pgm"):
        arr, _ = cli.read_pgm(spec["input"])
        data_values = cli.image_from_pgm(arr).coeffs
    data, params = denoise_problem(spec, data_values)
    with tr.span("minimize.assemble") as sp_a:
        nltv.denoise(data, params, nltv.SolverConfig(max_iter=1))
    with tr.span("minimize.solve") as sp_s:
        result = nltv.denoise(data, params, nltv.SolverConfig(tol=spec["tol"]))
    with tr.span("cli.write_signal_csv"):
        cli.write_signal_csv(spec["output"], result.minimizer.ravel(), "# replay")
    values.update({
        "assemble_s": tr.duration(sp_a),
        "solve_s": tr.duration(sp_s),
        "iterations": result.iterations,
    })


def replay_verify(tr: Tracer, spec: dict, values: dict) -> None:
    """Both ``nltv verify`` commands of the workload: image, then spline."""
    import numpy as np

    import nltv

    reports = []
    for run in spec["runs"]:
        rng = np.random.default_rng(run["seed"])
        n = run["n"]
        if run["family"] == "image":
            f = nltv.Image2D(rng.uniform(0.0, 1.0, (n, n)))
            kernel = nltv.Kernel(nltv.KernelKind.DISC2D, n)
            with tr.span("schemes_2d.eval_image"):
                closed = nltv.eval_image(f, kernel.kind)
        else:
            f = nltv.Spline1D(rng.uniform(0.0, 1.0, n + 1))
            kernel = nltv.Kernel(nltv.KernelKind.BOX1D, n)
            with tr.span("schemes_1d.eval_spline"):
                closed = nltv.eval_spline(f)
        cfg = nltv.OracleConfig(method="mc", samples=run["samples"], seed=run["seed"])
        with tr.span(f"oracle.mc_{run['family']}") as sp:
            report = nltv.oracle_eval(f, kernel, cfg)
        reports.append({"family": run["family"], "closed": closed,
                        "value": report.value, "stderr": report.stderr_estimate,
                        "seconds": tr.duration(sp)})
    values["reports"] = reports


def _median_time(fn) -> float:
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes(spec: dict, values: dict) -> None:
    """Median time of single layer calls on the fixed probe inputs, the time
    of each oracle Gauss factor, and the oracle's matched-scale accuracy
    guard."""
    import numpy as np

    import nltv
    from nltv import cli
    from nltv.minimize import SCHEME_CLOSED_1D, SCHEME_ORACLE
    from nltv.oracle import GAUSS, geometric_factor_2d

    signal = cli.read_signal_csv(spec["csv"])
    image = cli.read_pgm(spec["p5"])[0]
    lam = spec["alpha_1d"] * signal.size / nltv.kpn(1.0, 1).value
    params = nltv.EnergyParams(
        p=1.0, alpha=spec["alpha_1d"], grid_n=signal.size,
        kernel=nltv.Kernel(nltv.KernelKind.BOX1D, signal.size),
        scheme=SCHEME_CLOSED_1D)
    data = nltv.DataTerm.of(signal)
    times = {
        "cli.read_signal_csv_s": lambda: cli.read_signal_csv(spec["csv"]),
        "cli.write_signal_csv_s": lambda: cli.write_signal_csv(spec["csv_out"], signal),
        "cli.read_pgm_p2_s": lambda: cli.read_pgm(spec["p2"]),
        "cli.read_pgm_p5_s": lambda: cli.read_pgm(spec["p5"]),
        "schemes_1d.eval_pc_box_s": lambda: nltv.eval_pc_box(nltv.PiecewiseConstant1D(signal)),
        "schemes_2d.eval_image_s": lambda: nltv.eval_image(nltv.Image2D(image),
                                                           nltv.KernelKind.DISC2D),
        "minimize.energy_s": lambda: nltv.energy(signal, data, params),
        "minimize.taut_string_s": lambda: nltv.taut_string_1d(signal, lam),
    }
    values["times"] = {name: _median_time(fn) for name, fn in times.items()}

    # oracle Gauss factors, cold, for every offset the solver needs on a
    # 16x16 grid with the disc kernel at scale 8 (nltv denoise --scale 8)
    n = spec["factor_grid"]
    oracle_params = nltv.EnergyParams(
        p=1.0, alpha=spec["alpha_1d"], grid_n=n,
        kernel=nltv.Kernel(nltv.KernelKind.DISC2D, spec["factor_scale"]),
        scheme=SCHEME_ORACLE)
    cfg = nltv.OracleConfig(method=GAUSS, points_per_cell_axis=oracle_params.oracle_points)
    factor_times = []
    for offset in _needed_offsets(oracle_params):
        t0 = time.perf_counter()
        geometric_factor_2d(offset, n, oracle_params.kernel, cfg)
        factor_times.append(time.perf_counter() - t0)
    values["factor_times"] = factor_times

    # Gauss factors at the matched scale reproduce the closed-form stencil
    kernel = nltv.Kernel(nltv.KernelKind.DISC2D, n)
    weights = nltv.stencil_weights(kernel.kind, n)
    lateral, _ = geometric_factor_2d((1, 0), n, kernel, cfg)
    diagonal, _ = geometric_factor_2d((1, 1), n, kernel, cfg)
    values["factor_err"] = max(abs(lateral - weights.lateral) / weights.lateral,
                               abs(diagonal - weights.diagonal) / weights.diagonal)
    values["probe_pgm_equal"] = bool(np.array_equal(image, cli.read_pgm(spec["p2"])[0]))


def main(argv) -> int:
    mode, spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tr = Tracer()
    values: dict = {}
    with tr.span("replay" if mode == "replay" else "probes"):
        if mode == "probes":
            run_probes(spec, values)
        else:
            with tr.span("import"):
                import nltv  # noqa: F401
            if spec["workload"] == "verify-mc":
                replay_verify(tr, spec, values)
            else:
                replay_denoise(tr, spec, values)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "values": values}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
