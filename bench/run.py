"""factorint benchmark: CLI pipelines, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

BENCHMARK.json lists gp_saddle and overlap_null; mult_genome also runs, but
its checks fail on some seeds (see workloads.MultGenome).

Run from the root of a source checkout: the package is taken from ``src/``.
Every command is ``python -m factorint.cli ...`` in a fresh interpreter, one
at a time (a closed loop with a single client). The benchmark sets no BLAS
or OpenMP thread variable; it records the ones it inherited.

A run prepares the workload's inputs several times (the median is
``setup_s``), then repeats passes of the workload's commands, starting
another pass only while it is expected to end within ``--seconds``. At
least one pass always runs, and none starts that would likely end after
150 s. With ``--trace 1`` traced and untraced passes alternate, traced
first; the per-layer metrics come from the traced ones, and
``trace.overhead_ratio`` compares their wall times. When there is no time
for an untraced pass (gp_saddle), it is estimated from the span count and
the timed cost of one traced call.

Every command and every correctness check is one operation; the last line
of standard output is the JSON result, with ``failed`` / ``attempted`` as the
error rate. Lines before it give the environment, every check, the per-
command timings and the artifact hashes. A copy of everything goes to
``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gp_saddle", "mult_genome", "overlap_null"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes for the self-tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "factorint" / "cli.py").is_file():
        print(f"error: {root} is not a factorint checkout (no src/factorint/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import factorint

    if Path(factorint.__file__).resolve().parent != (root / "src" / "factorint").resolve():
        print(f"error: factorint imported from {factorint.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    from runner import Run, environment

    # SIGTERM unwinds like Ctrl-C, so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = Run(args, root)
    env = environment()
    try:
        result = run.execute()
        run.report(result, env)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
