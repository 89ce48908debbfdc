"""Benchmark of the ``nltv`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload denoise-2d --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One client runs the ``nltv`` command as a user does, one child process at a
time, in a closed loop: the next request starts when the previous one ended.
Each request gets its own input, generated from ``(seed, request index)``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time of a
fresh interpreter running ``import nltv``), ``wall_s`` (median wall time of a
request, import included) and ``peak_rss_mb`` (median peak RSS of the child).
``--trace 1`` reports the per-layer metrics: it replays the workload's first
request through the package's public functions with spans around each layer
call, in a fresh interpreter per repetition (see ``replay.py``), and runs the
fixed layer probes. The last line of standard output is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people.

``--workload all`` runs every workload in turn and prints each metric by
name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# the probes' 1D signal, and the denoise-2d image side
SIGNAL_N = 16384
IMAGE_N = 128
# the oracle probe: Gauss factors for nltv denoise on a 16x16 image at --scale 8
ORACLE_N = 16
ORACLE_SCALE = 8
# alpha of the probes' 1D energy and taut string, and of denoise-2d
ALPHA_1D = 5e-4
ALPHA_2D = 2e-3
# at the CLI default (1e-8) the iteration count ranges over +-20% from one
# noise draw to the next, at 1e-7 over +-10%
TOL_2D = 1e-7
VERIFY_RUNS = (("image", 16), ("spline", 128))
VERIFY_SAMPLES = 20_000_000
SETUP_REPEATS = 3
IMPORT_TRACES = 3
CHILD_TIMEOUT_S = 150.0
CLI = "import sys; from nltv.cli import main; sys.exit(main())"

# why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS = ("denoise-2d", "verify-mc")


@dataclass
class Run:
    code: int
    wall: float
    rss_mb: float
    stdout: str


@dataclass
class Request:
    commands: list
    check: object
    spec: dict
    input_bytes: int = 0
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# child processes


# every BLAS/OpenMP pool one thread: numpy's OpenBLAS otherwise starts a thread
# per CPU whose spin-waiting competes with the solver's own thread, and the
# request walls then measure the scheduler of the shared 2-CPU host
SINGLE_THREAD = {name: "1" for name in
                 ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(args, work: Path, env: dict) -> Run:
    """Run ``python <args>`` to completion; wall time from spawn to reap and
    peak RSS from the child's rusage."""
    out_path = work / "child.out"
    with open(out_path, "w+b") as out, open(work / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                cwd=work, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024.0, text)


def run_cli(argv, work: Path, env: dict) -> Run:
    return spawn(["-c", CLI, *argv], work, env)


# ---------------------------------------------------------------------------
# workloads: inputs, commands and correctness checks


def _read_output(path: Path, size: int):
    """Values of a CSV the CLI wrote, or None when it is missing, malformed,
    non-finite or of the wrong length."""
    import numpy as np

    try:
        values = np.loadtxt(path, comments="#", ndmin=1)
    except (OSError, ValueError):
        return None
    if values.size != size or not np.all(np.isfinite(values)):
        return None
    return values


def _denoise_argv(spec: dict, out: Path) -> list:
    return ["denoise", "--input", spec["input"], "--alpha", repr(spec["alpha"]),
            "--kernel", spec["kernel"], "--tol", repr(spec["tol"]), "--out", str(out)]


def _denoise_request(spec: dict, work: Path, index: int, clean, noisy,
                     input_bytes: int) -> Request:
    """A denoise request passes when its output parses, is finite, has the
    input's shape and lies closer to the clean image than the noisy input
    does."""
    import numpy as np

    out = work / f"denoised-{index}.csv"

    def check(runs, info):
        x = _read_output(out, noisy.size)
        if x is None:
            return False
        x = x.reshape(noisy.shape)
        info["output"] = x
        info["gain"] = float(np.abs(x - clean).mean() / np.abs(noisy - clean).mean())
        return info["gain"] < 1.0

    return Request([_denoise_argv(spec, out)], check, spec, input_bytes,
                   info={"data": noisy})


def build_request(name: str, seed: int, index: int, work: Path) -> Request:
    import numpy as np

    import inputs

    replay_out = str(work / "replay-out.csv")
    if name == "denoise-2d":
        clean, pixels = inputs.noisy_blocks(seed, index, IMAGE_N)
        path = work / f"image-{index}.pgm"
        nbytes = inputs.write_pgm(path, pixels, raw=False)
        spec = {"workload": name, "input": str(path), "output": replay_out,
                "alpha": ALPHA_2D, "kernel": "disc", "tol": TOL_2D}
        return _denoise_request(spec, work, index, clean,
                                pixels / float(inputs.MAXVAL), nbytes)
    if name == "verify-mc":
        cli_seed = int(np.random.default_rng([seed, index]).integers(2 ** 31))
        runs = [{"family": family, "n": n, "samples": VERIFY_SAMPLES,
                 "seed": cli_seed} for family, n in VERIFY_RUNS]
        commands = [["verify", "--family", r["family"], "--n", str(r["n"]),
                     "--samples", str(r["samples"]), "--seed", str(cli_seed)]
                    for r in runs]

        def check(results, info):
            # the printed rel-error must be within the printed tolerance
            info["oracle"] = []
            for res in results:
                rel = re.search(r"^rel-error\s+(\S+) \(tolerance (\S+)\)",
                                res.stdout, re.M)
                value = re.search(r"^oracle\s+(\S+)", res.stdout, re.M)
                if rel is None or value is None:
                    return False
                if not float(rel.group(1)) <= float(rel.group(2)):
                    return False
                info["oracle"].append(value.group(1))
            return True

        return Request(commands, check, {"workload": name, "runs": runs})
    raise ValueError(f"unknown workload {name!r}")


def execute(req: Request, work: Path, env: dict):
    """Run a request's commands in turn; returns (passed, wall, peak RSS).
    A non-zero exit, including non-convergence (4), fails the request."""
    runs = [run_cli(argv, work, env) for argv in req.commands]
    passed = all(r.code == 0 for r in runs) and bool(req.check(runs, req.info))
    return passed, sum(r.wall for r in runs), max(r.rss_mb for r in runs)


# ---------------------------------------------------------------------------
# end-to-end run


def measure_setup(work: Path, env: dict) -> list:
    """Wall times of fresh interpreters importing nltv, after one untimed
    import that writes the bytecode cache."""
    runs = [spawn(["-c", "import nltv"], work, env) for _ in range(SETUP_REPEATS + 1)]
    if any(r.code != 0 for r in runs):
        raise RuntimeError("import nltv failed: "
                           + (work / "child.err").read_text(errors="replace")[-2000:])
    return [r.wall for r in runs[1:]]


def run_end_to_end(name: str, seed: int, seconds: float, work: Path, env: dict):
    setup = measure_setup(work, env)
    results, nbytes = [], 0
    start = time.perf_counter()
    # a request starts while its expected midpoint lies inside the window, so
    # a run lasts about --seconds however long one request takes
    while not results or (time.perf_counter() - start
                          + statistics.median(r[1] for r in results) / 2 < seconds):
        req = build_request(name, seed, len(results), work)
        results.append(execute(req, work, env))
        nbytes += req.input_bytes
    attempted = len(results)
    failed = sum(not passed for passed, _, _ in results)
    # timings of passing requests; a run where all failed still reports some
    timed = [r for r in results if r[0]] or results
    walls = [wall for _, wall, _ in timed]
    rss = [peak for _, _, peak in timed]
    print(f"{name}: {attempted} requests, {failed} failed "
          f"(fail_frac {failed / attempted:.3f}), input bytes {nbytes}")
    print(f"{name}: request walls (s) " + " ".join(f"{w:.3f}" for w in walls))
    if len(walls) > 10:
        # the highest percentile with at least ten samples beyond it
        tail = sorted(walls)[-11]
        print(f"{name}: wall_s p{100 * (len(walls) - 10) / len(walls):.0f} "
              f"{tail:.4f} s (n={len(walls)})")
    else:
        print(f"{name}: wall_s is the median of {len(walls)}; no percentile "
              f"has ten samples beyond it")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return failed == 0, attempted, failed, metrics


# ---------------------------------------------------------------------------
# traced run


def import_trace(work: Path, env: dict) -> dict:
    """Cumulative import time (s) of ``nltv`` and of the ``scipy.integrate``
    subtree, from the interpreter's -X importtime.

    scipy loads ``scipy.integrate`` through a module ``__getattr__``, which
    logs its submodules but no line for the package itself, so the subtree
    is the sum over its outermost ``scipy.integrate*`` entries. Entries are
    logged children first, so an entry's parent is the next one that is
    less indented."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nltv"],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            raw = parts[2].rstrip()
            entries.append((len(raw) - len(raw.lstrip()), raw.strip(),
                            int(parts[1]) * 1e-6))
    times = {"nltv": 0.0, "scipy.integrate": 0.0}
    for i, (depth, name, cumulative) in enumerate(entries):
        if name == "nltv":
            times["nltv"] = cumulative
        if name.startswith("scipy.integrate"):
            parent = next((e[1] for e in entries[i + 1:] if e[0] < depth), "")
            if not parent.startswith("scipy.integrate"):
                times["scipy.integrate"] += cumulative
    return times


def self_times(spans) -> dict:
    """Self time per layer: each span's duration minus its children's, summed
    over spans of one layer (the part of a span name before the first dot,
    with schemes_1d/schemes_2d counted as schemes)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    layers = {}
    for s, covered in zip(spans, child):
        layer = s["name"].split(".")[0].split("_")[0]
        layers[layer] = layers.get(layer, 0.0) + (s["end"] - s["start"] - covered)
    return layers


def _child_json(mode: str, spec: dict, work: Path, env: dict):
    spec_path = work / f"{mode}-spec.json"
    out_path = work / f"{mode}-out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    run = spawn([str(HERE / "replay.py"), mode, str(spec_path), str(out_path)], work, env)
    if run.code != 0:
        raise RuntimeError(f"{mode} child exited {run.code}: "
                           + (work / "child.err").read_text(errors="replace")[-2000:])
    return run.wall, json.loads(out_path.read_text(encoding="utf-8"))


def _probe_spec(seed: int, work: Path) -> dict:
    import inputs

    _, signal = inputs.noisy_steps(seed, 0, SIGNAL_N)
    _, pixels = inputs.noisy_blocks(seed, 0, IMAGE_N)
    spec = {"csv": str(work / "probe.csv"), "p2": str(work / "probe-p2.pgm"),
            "p5": str(work / "probe-p5.pgm"), "csv_out": str(work / "probe-out.csv"),
            "alpha_1d": ALPHA_1D, "factor_grid": ORACLE_N, "factor_scale": ORACLE_SCALE}
    inputs.write_csv(spec["csv"], signal)
    inputs.write_pgm(spec["p2"], pixels, raw=False)
    inputs.write_pgm(spec["p5"], pixels, raw=True)
    return spec


def _reference_2d(spec: dict, values):
    """Tight-tolerance minimizer and its own accuracy: the distance to a solve
    stopped 100 times earlier in tolerance."""
    import numpy as np

    import nltv
    import replay

    data, params = replay.denoise_problem(spec, values)
    tight = nltv.denoise(data, params, nltv.SolverConfig(tol=1e-12, max_iter=50_000))
    looser = nltv.denoise(data, params, nltv.SolverConfig(tol=1e-10, max_iter=50_000))
    return tight.minimizer, float(np.max(np.abs(tight.minimizer - looser.minimizer)))


def run_traced(name: str, seed: int, seconds: float, work: Path, env: dict):
    import numpy as np

    start = time.perf_counter()
    imports = [import_trace(work, env) for _ in range(IMPORT_TRACES)]
    req = build_request(name, seed, 0, work)
    passed, untraced, _ = execute(req, work, env)
    checks = [passed]

    replays = []
    while not replays or time.perf_counter() - start < seconds:
        replays.append(_child_json("replay", req.spec, work, env))
    _, probes = _child_json("probes", _probe_spec(seed, work), work, env)
    probes = probes["values"]
    checks.append(probes["probe_pgm_equal"])

    m = {name_: 0.0 for name_, _ in PER_LAYER}
    m["import.nltv_s"] = statistics.median(t["nltv"] for t in imports)
    m["import.scipy_integrate_s"] = statistics.median(t["scipy.integrate"] for t in imports)
    m.update(probes["times"])
    m["oracle.factor_2d_gauss_s"] = statistics.median(probes["factor_times"])
    m["oracle.factor_2d_gauss_n"] = len(probes["factor_times"])
    m["oracle.factor_err"] = probes["factor_err"]

    walls = [w for w, _ in replays]
    selfs = [self_times(out["spans"]) for _, out in replays]
    for layer in ("import", "cli", "schemes", "oracle", "minimize"):
        m[f"self.{layer}_s"] = statistics.median(s.get(layer, 0.0) for s in selfs)
    m["trace.wall_s"] = statistics.median(walls)
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead"] = m["trace.wall_s"] / untraced - 1.0
    m["trace.replays"] = len(replays)

    vals = [out["values"] for _, out in replays]
    if name == "verify-mc":
        for family, _ in VERIFY_RUNS:
            m[f"oracle.mc_{family}_s"] = statistics.median(
                r["seconds"] for v in vals for r in v["reports"] if r["family"] == family)
        reports = vals[-1]["reports"]
        m["oracle.mc_err_sigma"] = max(abs(r["value"] - r["closed"]) / r["stderr"]
                                       for r in reports)
        m["oracle.mc_stderr_rel"] = max(r["stderr"] / r["closed"] for r in reports)
        # the replay computes what the command printed
        checks.append([format(r["value"], ".12g") for r in reports]
                      == req.info.get("oracle"))
    else:
        m["minimize.assemble_s"] = statistics.median(v["assemble_s"] for v in vals)
        m["minimize.solve_s"] = statistics.median(v["solve_s"] for v in vals)
        m["minimize.iterations"] = vals[-1]["iterations"]
        m["minimize.iter_s"] = ((m["minimize.solve_s"] - m["minimize.assemble_s"])
                                / max(m["minimize.iterations"] - 1, 1))
        output = req.info.get("output")
        replayed = _read_output(Path(req.spec["output"]),
                                output.size if output is not None else 0)
        checks.append(output is not None and replayed is not None
                      and np.array_equal(replayed, output.ravel()))
        if output is not None:
            ref, m["minimize.ref_err"] = _reference_2d(req.spec, req.info["data"])
            m["minimize.err_max"] = float(np.max(np.abs(output - ref)))

    _print_spans(name, selfs[-1], walls[-1], untraced)
    metrics = {key: (m[key], unit) for key, unit in PER_LAYER}
    failed = checks.count(False)
    return failed == 0, len(checks), failed, metrics


def _print_spans(name: str, selfs: dict, traced: float, untraced: float):
    """Self time by layer of one replay, as a share of that replay's wall."""
    shares = ", ".join(f"{layer} {t:.3f} s ({t / traced:.0%})"
                       for layer, t in sorted(selfs.items(), key=lambda kv: -kv[1]))
    print(f"{name}: last replay {traced:.3f} s (untraced request {untraced:.3f} s); "
          f"self time by layer: {shares}")


# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = [
    ("import.nltv_s", "s"), ("import.scipy_integrate_s", "s"),
    ("cli.read_signal_csv_s", "s"), ("cli.write_signal_csv_s", "s"),
    ("cli.read_pgm_p2_s", "s"), ("cli.read_pgm_p5_s", "s"),
    ("schemes_1d.eval_pc_box_s", "s"), ("schemes_2d.eval_image_s", "s"),
    ("oracle.factor_2d_gauss_s", "s"), ("oracle.factor_2d_gauss_n", "count"),
    ("oracle.factor_err", "ratio"),
    ("oracle.mc_image_s", "s"), ("oracle.mc_spline_s", "s"),
    ("oracle.mc_err_sigma", "sigma"), ("oracle.mc_stderr_rel", "ratio"),
    ("minimize.assemble_s", "s"), ("minimize.solve_s", "s"),
    ("minimize.iterations", "count"), ("minimize.iter_s", "s"),
    ("minimize.energy_s", "s"), ("minimize.taut_string_s", "s"),
    ("minimize.err_max", "abs"), ("minimize.ref_err", "abs"),
    ("self.import_s", "s"), ("self.cli_s", "s"), ("self.schemes_s", "s"),
    ("self.oracle_s", "s"), ("self.minimize_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"), ("trace.replays", "count"),
]


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = run_traced if trace else run_end_to_end
        correct, attempted, failed, metrics = runner(name, seed, seconds, work, _env())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nltv" / "__init__.py").is_file():
        print(f"perfbench: no nltv sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # before numpy is first imported, here or in a child
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            res = results[name]
            print(f"{name:<11} {'fail_frac':<28} {res['failed'] / res['attempted']:.6g} "
                  f"ratio ({res['failed']} of {res['attempted']})")
            for metric, entry in res["metrics"].items():
                print(f"{name:<11} {metric:<28} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
