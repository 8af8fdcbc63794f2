"""Benchmark of the volterra-control package.

Run from the repository root:

    python3 perfbench/run.py --workload {acceptance,volterra_forward,backward_jumps}
                             --seed N --seconds S --trace {0,1}

One client runs operations back to back (a closed loop) for ``--seconds``
seconds; at least one operation always runs.  With ``--trace 0`` the last
line of standard output is a JSON object carrying the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``).  With ``--trace 1`` the same
untraced loop runs first, then one operation with spans around the
package's public functions, plus the sweep micro-benchmark; the JSON then
carries the per-layer metrics.  Earlier lines record the environment, each
operation's output values at full precision, and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11


def _pin_blas_threads() -> None:
    # must happen before numpy is imported, here and in every probe process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(len(os.sched_getaffinity(0)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_blas_threads()
    if not (ROOT / "src" / "volterra_control" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        harness.WORKLOADS[args.workload][0](args.seed, ROOT)
        return 0
    return harness.run(args, ROOT, SETUP_PROBES)


if __name__ == "__main__":
    sys.exit(main())
