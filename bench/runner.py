"""Runs one benchmark workload: set-up, timed passes of factorint commands,
checks, and the result. See run.py for the command line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy
import scipy
from factorint.io import sha256_file

import metrics
from spans import high_percentile, median
from workloads import Check, make, manifest_check

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0   # every command is stopped by then, so the run ends within 180 s
PASS_START_LIMIT_S = 150.0  # no pass starts that is expected to end later than this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

clock = time.perf_counter


@dataclass
class Outcome:
    label: str
    role: str          # "setup", "main" or "post"
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    launched: float    # clock() just before the process was started
    log: str
    pass_no: int = -1  # -1 for set-up
    traced: bool = False


class Runner:
    """Starts one program process at a time and waits for it to end."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root, self.workdir, self.deadline = root, workdir, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.count = 0

    def run(self, label: str, role: str, argv: list[str]) -> Outcome:
        self.count += 1
        log = self.workdir / f"{self.count:03d}-{label}.log"
        with open(log, "wb") as fh:
            launched = clock()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fh,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
            timer = threading.Timer(max(0.0, self.deadline - launched), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = clock() - launched
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(label, role, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, launched, str(log))

    def cli(self, label: str, role: str, args: tuple[str, ...], spans: Path | None) -> Outcome:
        if spans is None:
            return self.run(label, role, ["-m", "factorint.cli", *args])
        return self.run(label, role, [str(BENCH_DIR / "tracer.py"), str(spans), *args])


def source_digest(root: Path) -> str:
    """Digest of what decides the artifacts: the package source and the
    workload definitions."""
    h = hashlib.sha256()
    for path in [*sorted((root / "src" / "factorint").rglob("*.py")), BENCH_DIR / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_ticks() -> list[int] | None:
    """Aggregate CPU time counters from /proc/stat (user ... steal), if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this machine between two readings."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "inherited_thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, args, root: Path):
        self.args, self.root = args, root
        self.workload = make(args.workload, tiny=args.tiny)
        self.started = clock()
        self.ticks = cpu_ticks()
        runs = root / ".bench_runs"
        self.workdir = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.record_path = runs / "determinism.json"
        self.results_dir = runs / "results"
        self.runner = Runner(root, self.workdir, self.started + RUN_LIMIT_S)
        self.outcomes: list[Outcome] = []
        self.checks: list[Check] = []
        self.traced: list[metrics.TracedCommand] = []
        self.pass_walls: dict[bool, list[float]] = {False: [], True: []}
        self.hashes: list[dict[str, str]] = []

    # -- operations --------------------------------------------------------

    def command(self, label: str, role: str, args: tuple[str, ...] | None,
                traced: bool) -> Outcome:
        spans = (self.workdir / f"spans-{self.runner.count + 1:03d}.json"
                 if traced and args is not None else None)
        if args is None:
            out = self.runner.run(label, role, ["-c", "import factorint.cli"])
        else:
            out = self.runner.cli(label, role, args, spans)
        self.outcomes.append(out)
        if spans is not None and out.returncode == 0:
            dump = json.loads(spans.read_text(encoding="utf-8"))
            self.traced.append(metrics.TracedCommand.from_dump(
                role, out.wall_s, out.launched, dump))
        return out

    def check(self, name: str, make_checks) -> None:
        """Run a check function; one that raises counts as a failed check."""
        try:
            self.checks += make_checks()
        except Exception as exc:  # noqa: BLE001 - unreadable output is a failed check
            self.checks.append(Check(name, False, f"{type(exc).__name__}: {exc}"))

    @staticmethod
    def exit_detail(res: Outcome) -> str:
        if res.returncode == 0:
            return "returncode 0"
        tail = Path(res.log).read_text(encoding="utf-8", errors="replace").strip()
        return f"returncode {res.returncode}: {tail.splitlines()[-1] if tail else ''}"

    # -- phases ------------------------------------------------------------

    def setup(self) -> tuple[list[float], object]:
        w, seed = self.workload, self.args.seed
        repeats = 1 if self.args.trace else SETUP_REPEATS
        times, digests, inputs = [], [], None
        for k in range(repeats):
            out = self.workdir / f"setup{k}"
            args = w.setup_args(seed, out)
            res = self.command("setup", "setup", args, traced=bool(self.args.trace))
            times.append(res.wall_s)
            if res.returncode != 0:
                self.checks.append(Check("exit.setup", False, self.exit_detail(res)))
                return times, None
            if args is not None:
                self.checks.append(manifest_check(out))
                digests.append({p.name: sha256_file(p) for p in sorted(out.iterdir())
                                if p.name != "manifest.json"})
            inputs = out
        if len(digests) > 1:
            same = all(d == digests[0] for d in digests)
            self.checks.append(Check("determinism.setup", same,
                                     f"{len(digests)} set-ups, identical inputs: {same}"))
        try:
            return times, w.load_inputs(inputs)
        except Exception as exc:  # noqa: BLE001 - unreadable inputs fail the run
            self.checks.append(Check("setup.inputs", False, f"{type(exc).__name__}: {exc}"))
            return times, None

    def one_pass(self, k: int, inputs, traced: bool) -> float:
        out = self.workdir / f"pass{k}"
        wall = 0.0
        failed = False
        for cmd in self.workload.commands(self.args.seed, inputs, out):
            res = self.command(cmd.label, cmd.role, cmd.args, traced)
            res.pass_no, res.traced = k, traced
            wall += res.wall_s
            ok = res.returncode == 0
            failed |= not ok
            self.checks.append(Check(f"exit.{cmd.label}", ok, self.exit_detail(res)))
            if ok:
                self.checks.append(manifest_check(cmd.out))
        if not failed:
            self.check("outputs", lambda: self.workload.checks(inputs, out))
            self.hashes.append({p.relative_to(out).as_posix(): sha256_file(p)
                                for p in self.workload.hashed_files(out)})
        self.pass_walls[traced].append(wall)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def determinism(self) -> None:
        if not self.hashes:
            return
        first = self.hashes[0]
        if len(self.hashes) > 1:
            same = all(h == first for h in self.hashes)
            self.checks.append(Check("determinism.passes", same,
                                     f"{len(self.hashes)} passes, identical artifacts: {same}"))
        key = "/".join((self.args.workload, f"seed{self.args.seed}",
                        "tiny" if self.args.tiny else "full",
                        source_digest(self.root)))
        try:
            record = json.loads(self.record_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = {}
        if key in record:
            same = record[key] == first
            self.checks.append(Check("determinism.record", same,
                                     f"artifacts match an earlier run at this seed: {same}"))
        else:
            record[key] = first
            self.record_path.write_text(json.dumps(record, indent=1, sort_keys=True),
                                        encoding="utf-8")

    def execute(self) -> dict:
        setup_times, inputs = self.setup()
        k = 0
        while inputs is not None:
            traced = bool(self.args.trace) and k % 2 == 0
            self.one_pass(k, inputs, traced)
            k += 1
            expected_end = clock() - self.started + median(
                self.pass_walls[False] + self.pass_walls[True])
            if expected_end > PASS_START_LIMIT_S:
                break
            if self.args.trace and not self.pass_walls[False]:
                continue  # one untraced pass, for the tracing overhead
            if expected_end > self.args.seconds:
                break
        self.determinism()
        return self.summarize(setup_times)

    # -- results -----------------------------------------------------------

    def summarize(self, setup_times: list[float]) -> dict:
        passes = [o for o in self.outcomes if o.role != "setup"]
        untraced = self.pass_walls[False]
        table = metrics.PER_LAYER if self.args.trace else metrics.END_TO_END
        if self.args.trace:
            n_traced = len(self.pass_walls[True])
            overhead = (median(self.pass_walls[True]) / median(untraced)
                        if n_traced and untraced else metrics.estimated_overhead(self.traced))
            values = metrics.per_layer(self.traced, n_traced, overhead)
        else:
            mains = [o for o in passes if o.role == "main" and o.returncode == 0]
            values = {
                "setup_s": median(setup_times) if setup_times else 0.0,
                "wall_s": median(untraced) if untraced else 0.0,
                "throughput_per_s": median([self.workload.work_units / o.wall_s for o in mains])
                if mains else 0.0,
                "peak_rss_mb": max((o.maxrss_mb for o in passes), default=0.0),
            }
        attempted = len(self.checks)
        failed = sum(not c.ok for c in self.checks)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, *_ in table},
        }

    def report(self, result: dict, env: dict) -> None:
        lines = [f"workload {self.args.workload} seed {self.args.seed} "
                 f"trace {self.args.trace} passes {sum(map(len, self.pass_walls.values()))}",
                 "env " + json.dumps(env, sort_keys=True)]
        by_label: dict[str, list[Outcome]] = {}
        for o in self.outcomes:
            by_label.setdefault(o.label, []).append(o)
        for label, outs in by_label.items():
            lines.append(f"command {label}: n={len(outs)} median wall "
                         f"{median([o.wall_s for o in outs]):.3f} s, median cpu "
                         f"{median([o.cpu_s for o in outs]):.3f} s, max rss "
                         f"{max(o.maxrss_mb for o in outs):.1f} MB")
        post: dict[int, float] = {}
        for o in self.outcomes:
            if o.role == "post" and not o.traced:
                post[o.pass_no] = post.get(o.pass_no, 0.0) + o.wall_s
        if post:
            lines.append(f"post_s (read-side commands of an untraced pass) median "
                         f"{median(list(post.values())):.3f} s, n={len(post)}")
        mains = [o.wall_s for o in self.outcomes if o.role == "main" and not o.traced]
        if mains:
            per_s = median([self.workload.work_units / t for t in mains])
            kind = "replicates_per_s" if self.args.workload == "overlap_null" \
                else "fit_sweeps_per_s"
            lines.append(f"{kind} {per_s:.6g} (n={len(mains)})")
        steal = steal_share(self.ticks, cpu_ticks())
        if steal is not None:
            lines.append(f"cpu steal share during the run {steal:.4f}")
        lines.append(f"error_rate {result['failed']}/{result['attempted']}")
        for c in self.checks:
            lines.append(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
        for k, h in enumerate(self.hashes):
            for name, digest in sorted(h.items()):
                lines.append(f"sha256 pass{k} {name} {digest}")
        if self.args.trace and self.traced:
            lines.append("trace.overhead_ratio " + (
                "from paired traced and untraced passes" if self.pass_walls[False]
                else "estimated: no untraced pass fitted in the run"))
            shares = metrics.main_shares(self.traced)
            lines.append("main-command wall share by layer (self time): " + ", ".join(
                f"{layer} {share:.3f}" for layer, share in shares.items()))
            durations: dict[str, list[float]] = {}
            for cmd in self.traced:
                for span in cmd.spans:
                    durations.setdefault(span.name, []).append(span.end - span.start)
            for name, values in sorted(durations.items()):
                high = high_percentile(values)
                if high is not None:
                    lines.append(f"span {name}: n={len(values)} median "
                                 f"{1000 * median(values):.4g} ms, p{high[0]} "
                                 f"{1000 * high[1]:.4g} ms")
        for name, entry in result["metrics"].items():
            lines.append(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
        print("\n".join(lines))
        self.results_dir.mkdir(parents=True, exist_ok=True)
        stamp = f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}-{time.time_ns()}"
        (self.results_dir / f"{stamp}.json").write_text(json.dumps({
            "args": vars(self.args), "env": env, "result": result,
            "checks": [asdict(c) for c in self.checks],
            "commands": [asdict(o) for o in self.outcomes],
            "hashes": self.hashes, "report": lines}, indent=1), encoding="utf-8")
