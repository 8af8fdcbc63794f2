"""Closed-loop runner, metrics and environment record of the benchmark."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

import spans
import sweep
from volterra_control import _kernels
from workloads import WORKLOADS

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# work counters recorded by spans.Recorder; zero when a workload never calls the layer
COUNTERS = {
    "paths.generate_noise.mb": "MB",
    "kernels.volterra_sweep.gflop": "Gflop",
    "condexp.project.cols": "count",
    "condexp.project.designs": "count",
    "condexp.project.cache_mb": "MB",
    "bsde.solve_bsde.steps": "count",
    "bsvie.solve_bsvie.passes": "count",
    "bsvie.solve_family_step.pairs": "count",
}


def layer_metrics() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    out = {}
    for name in spans.COUNTED:
        out.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
    out.update(COUNTERS)
    out["kernels.volterra_sweep.gflops"] = "Gflop/s"
    out["condexp.project.reuse"] = "calls/design"
    for _, name in spans.CRITERIA:
        out[f"{name}.wall_s"] = "s"
    out["acceptance.self_s"] = "s"
    for n_steps, n_paths in sweep.SIZES:
        key = f"kernels.sweep_{n_steps}x{n_paths // 1000}k"
        out.update({f"{key}_s": "s", f"{key}_gflop": "Gflop", f"{key}_gb": "GB"})
    out["kernels.sweep_check_err"] = "1"
    out.update({"trace.wall_s": "s", "trace.unwrapped_s": "s", "trace.overhead_s": "s"})
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_in_use": _kernels.NUMBA_ENABLED,
        "VOLTERRA_CONTROL_NUMBA": os.environ.get("VOLTERRA_CONTROL_NUMBA"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mem_total_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9,
    }


def setup_seconds(args, root, probes: int) -> float:
    """Median time from a fresh interpreter to a loaded, validated scenario."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}: {' '.join(cmd)}")
    return statistics.median(times)


class Tally:
    """Operation outcomes of one run."""

    def __init__(self):
        self.walls: list[float] = []
        self.failed = 0

    def run_once(self, operation, state) -> float:
        t0 = time.perf_counter()
        try:
            values, problems = operation(state)
        except Exception as exc:  # an operation that raises is a failed operation
            traceback.print_exc()
            values, problems = {}, [f"raised {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.failed += bool(problems)
        print(json.dumps({"op": len(self.walls), "wall_s": wall, "problems": problems,
                          "values": values}))
        return wall

    def loop(self, operation, state, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.run_once(operation, state)
            if time.perf_counter() - start >= seconds:
                return


def traced_metrics(operation, state, tally: Tally, seed: int) -> tuple[dict, list]:
    """One traced operation plus the sweep micro-benchmark."""
    untraced = statistics.median(tally.walls)
    recorder = spans.Recorder()
    with spans.traced(recorder):
        wall = tally.run_once(operation, state)
    stats = spans.self_times(recorder.spans)
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
    out = {}
    for name in spans.COUNTED:
        row = stats.get(name, zero)
        out.update({f"{name}.calls": row["calls"], f"{name}.self_s": row["self_s"],
                    f"{name}.errors": row["errors"]})
    out.update({key: recorder.counters.get(key, 0.0) for key in COUNTERS})
    sweep_s = out["kernels.volterra_sweep.self_s"]
    out["kernels.volterra_sweep.gflops"] = (
        out["kernels.volterra_sweep.gflop"] / sweep_s if sweep_s > 0 else 0.0)
    designs = out["condexp.project.designs"]
    out["condexp.project.reuse"] = out["condexp.project.calls"] / designs if designs else 0.0
    for _, name in spans.CRITERIA:
        out[f"{name}.wall_s"] = stats.get(name, zero)["total_s"]
    out["acceptance.self_s"] = sum(stats.get(name, zero)["self_s"] for _, name in spans.CRITERIA)
    out["trace.wall_s"] = wall
    out["trace.unwrapped_s"] = wall - spans.root_time(recorder.spans)
    out["trace.overhead_s"] = wall - untraced

    problems = []
    accounted = sum(row["self_s"] for row in stats.values()) + out["trace.unwrapped_s"]
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"self times plus unwrapped time {accounted!r} != traced wall {wall!r}")
    out.update(sweep.measure(_kernels.volterra_sweep, seed))
    out["kernels.sweep_check_err"] = sweep.reference_error(_kernels.volterra_sweep, seed)
    if out["kernels.sweep_check_err"] > 1e-12:
        problems.append(f"sweep differs from the direct recursion by {out['kernels.sweep_check_err']!r}")
    return out, problems


def run(args, root, probes: int) -> int:
    setup, operation = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    setup_s = None if args.trace else setup_seconds(args, root, probes)
    state = setup(args.seed, root)
    tally = Tally()
    tally.loop(operation, state, args.seconds)
    problems = []
    if args.trace:
        values, problems = traced_metrics(operation, state, tally, args.seed)
        units = layer_metrics()
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(tally.walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for problem in problems:
        print(f"check failed: {problem}")
    attempted = len(tally.walls)
    print(f"fail_ratio {tally.failed / attempted:.6g} 1 ({tally.failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0
