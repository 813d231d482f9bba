"""Benchmark of the `simulate` process and the platesim layers beneath it.

    python3 bench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload as real `simulate` processes, one after
another (closed loop, one client), for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` spends the same time in-process: it
times the public functions of each layer on the workload's inputs and
makes traced calls of ``platesim.cli.main`` for self times and the
tracing overhead.  Every output is checked by ``output_check``, which
shares no code with platesim.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with the machine facts.  ``--report PATH`` also writes
the full result, raw spans included, as JSON.

The program runs from ``src/`` of the checkout through ``sys.executable``
with ``PYTHONPATH=src``, as the tier-1 tests import it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from importlib import metadata
from pathlib import Path

import output_check
import scenario_gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD = "import sys; from platesim.cli import main; sys.exit(main())"
SETUP_PROBE = "import sys, platesim.cli; platesim.cli.load_config(sys.argv[1])"
CHILD_TIMEOUT_S = 60.0
SETUP_PROBES = 15
MIN_PROCESSES = 3
TAIL_BEYOND = 10


@dataclasses.dataclass(frozen=True)
class Spec:
    """What one workload's processes run."""

    command: str  # "sweep" or "invariance"
    n_points: int
    grid: bool
    times: int = 0
    # Rows of the sweep whose spread column models.spread_ms times.
    spread_n: int = 4000
    # Times of the traced companion invariance call made by sweep workloads.
    companion_times: int = 20


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "sweep_small": Spec("sweep", n_points=200, grid=False),
    "sweep_large": Spec("sweep", n_points=4000, grid=False),
    "invariance_grid": Spec("invariance", n_points=200, grid=True, times=200),
}

END_TO_END = {
    "setup_s": "s",
    "run_s_p50": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "cli.import_ms": ("ms", "setup_s and run_s_p50 on sweep_small"),
    "config.load_config_us": ("us", "setup_s on every workload, most on sweep_small"),
    "packets.gaussian_overlap_us": ("us", "nothing measurable: a few calls per run; a guard"),
    "packets.grid_inner_product_us": ("us", "rows_per_s on invariance_grid"),
    "packets.propagate_us": ("us", "rows_per_s and run_s_p50 on invariance_grid; nothing on the sweeps"),
    "packets.fits_after_us": ("us", "rows_per_s on invariance_grid"),
    "packets.realize_ms": ("ms", "run_s_p50 on invariance_grid"),
    "packets.propagate_calls_per_row": ("count", "changes only under batching; a count, not a speed"),
    "optics.overlap_at_time_us": ("us", "rows_per_s on invariance_grid"),
    "optics.overlap_at_time_self_us": ("us", "rows_per_s on invariance_grid"),
    "models.sweep_d2_us_per_row": ("us/row", "rows_per_s on sweep_large"),
    "models.spread_ms": ("ms", "rows_per_s on sweep_large"),
    "models.spread_peak_mb": ("MB", "peak_rss_mb on sweep_large"),
    "cli.run_sweep_self_us_per_row": ("us/row", "rows_per_s on sweep_large"),
    "cli.run_invariance_self_ms": ("ms", "little, on invariance_grid"),
    "cli.csv_bytes_per_row": ("bytes", "nothing: it must repeat exactly for a seed"),
    "trace.overhead_pct": ("%", "nothing: it qualifies the self times"),
}


class Job:
    """One workload's generated inputs and the argv that runs them."""

    def __init__(self, spec: Spec, seed: int, workdir: Path, tag: str = "") -> None:
        self.spec = spec
        self.scenario = scenario_gen.scenario(seed, spec.n_points, spec.grid)
        self.times = (
            scenario_gen.invariance_times(seed, self.scenario, spec.times)
            if spec.command == "invariance"
            else []
        )
        self.config = workdir / f"scenario{tag}.json"
        self.config.write_text(json.dumps(self.scenario), encoding="utf-8")
        self.out = workdir / f"out{tag}.csv"
        self.argv = [spec.command, "--config", str(self.config)]
        if self.times:
            self.argv += ["--times", ",".join(repr(t) for t in self.times)]
        self.argv += ["--out", str(self.out)]

    @property
    def rows(self) -> int:
        return len(self.times) if self.times else self.spec.n_points

    def check(self, stdout: str) -> tuple[list[str], bytes]:
        """Problems with the last output, and its bytes."""
        try:
            data = self.out.read_bytes()
        except OSError as exc:
            return [f"no output: {exc}"], b""
        text = data.decode("utf-8", errors="replace")
        if self.spec.command == "sweep":
            return output_check.check_sweep(text, self.scenario), data
        return output_check.check_invariance(text, stdout, self.scenario, self.times), data


def _child_env() -> dict[str, str]:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _spawn(args: list[str], stdout, stderr) -> tuple[float, int, int]:
    """Run one child to completion; (wall seconds, exit code, ru_maxrss in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=stdout, stderr=stderr, env=_child_env(), cwd=ROOT
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    return ordered[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) // n} of {n}"


def measure_end_to_end(job: Job, seconds: float, workdir: Path) -> dict:
    """Closed loop of `simulate` processes for ``seconds``, tracing off."""
    log_out, log_err = workdir / "stdout.txt", workdir / "stderr.txt"

    def simulate() -> tuple[float, int, list[str], bytes]:
        job.out.unlink(missing_ok=True)
        with log_out.open("wb") as out, log_err.open("wb") as err:
            wall, code, rss_kib = _spawn(["-c", CHILD, *job.argv], out, err)
        problems, data = job.check(log_out.read_text(encoding="utf-8", errors="replace"))
        if code != 0:
            problems.insert(0, f"exit code {code}: {log_err.read_text(errors='replace')[-500:]}")
        return wall, rss_kib, problems, data

    def probe_setup() -> float:
        with log_err.open("wb") as err:
            wall, code, _ = _spawn(["-c", SETUP_PROBE, str(job.config)], subprocess.DEVNULL, err)
        if code != 0:
            raise RuntimeError(f"setup probe failed: {log_err.read_text(errors='replace')}")
        return wall

    # One untimed process compiles bytecode and warms the file cache; its
    # output is still checked.
    failures = [problems[:3] for problems in [simulate()[2]] if problems]
    walls, setup, rows, peak_kib, digests = [], [], 0, 0, {}
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_PROCESSES:
        # Setup probes are spread evenly over the run, outside its time.
        if len(setup) < SETUP_PROBES and time.perf_counter() >= start + len(setup) * seconds / SETUP_PROBES:
            setup.append(probe_setup())
            deadline += setup[-1]
            continue
        wall, rss_kib, problems, data = simulate()
        walls.append(wall)
        peak_kib = max(peak_kib, rss_kib)
        digest = hashlib.sha256(data).hexdigest()
        digests[digest] = digests.get(digest, 0) + 1
        if problems:
            failures.append(problems[:3])
        else:
            rows += job.rows
    if len(digests) > 1:
        failures.append([f"outputs differ between processes: {sorted(digests)}"])

    tail, tail_label = _tail(walls)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "run_s_p50": statistics.median(walls),
            "rows_per_s": rows / sum(walls),
            "peak_rss_mb": peak_kib / 1024.0,
        },
        "attempted": 1 + len(walls),
        "failed": len(failures),
        "failures": failures[:5],
        "notes": {
            "timed_processes": len(walls),
            "setup_probes": len(setup),
            # Printed, not bounded: bursts of host load move it by more
            # than any bound a regression check could use.
            "run_s_tail": tail,
            "run_s_tail_percentile": tail_label,
            "failed_ratio": len(failures) / (1 + len(walls)),
            # A child's ru_maxrss starts at this process's peak, which it
            # inherits at exec; peak_rss_mb is the child's own only above it.
            # This mode therefore never imports numpy.
            "benchmark_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "csv_sha256": sorted(digests),
        },
    }


def _per_call_s(fn, budget_s: float, min_samples: int = 5) -> float:
    """Median seconds per call over batches of at least 2 ms each."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= 2e-3:
            break
        number *= 2
    samples = [elapsed / number]
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(samples) < min_samples:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def _import_platesim():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import platesim
    import platesim.cli

    if not Path(platesim.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported platesim from {platesim.__file__}, not {SRC}")
    return platesim


def _import_ms(budget_s: float) -> float:
    """Median fresh-process `import platesim.cli` minus a bare start, in ms."""
    bare, full = [], []
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(bare) < 3:
        for code, into in (("pass", bare), ("import platesim.cli", full)):
            wall, status, _ = _spawn(["-c", code], subprocess.DEVNULL, subprocess.DEVNULL)
            if status != 0:
                raise RuntimeError(f"python -c {code!r} exited {status}")
            into.append(wall)
    return 1e3 * (statistics.median(full) - statistics.median(bare))


def _targets(ps) -> list[tuple[object, str, str]]:
    """Names the calling modules bound, wrapped as spans of the same name."""
    return [
        (ps.cli, "run_sweep", "cli.run_sweep"),
        (ps.cli, "run_invariance_report", "cli.run_invariance_report"),
        (ps.cli, "load_config", "cli.load_config"),
        (ps.cli, "sweep_d2", "cli.sweep_d2"),
        (ps.cli, "split", "cli.split"),
        (ps.cli, "overlap_at_time", "cli.overlap_at_time"),
        (ps.models.SweepResult, "spread", "models.SweepResult.spread"),
        (ps.optics, "propagate", "optics.propagate"),
        (ps.optics, "inner_product", "optics.inner_product"),
    ]


def measure_layers(job: Job, seed: int, seconds: float, workdir: Path) -> dict:
    """In-process per-layer timings plus the traced runs."""
    ps = _import_platesim()

    spec = job.spec
    attempted, failures = 0, []

    def call_main(j: Job, recorder=None) -> float:
        nonlocal attempted
        j.out.unlink(missing_ok=True)
        main = ps.cli.main if recorder is None else recorder.wrap("cli.main", ps.cli.main)
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = main(j.argv)
        wall = time.perf_counter() - start
        attempted += 1
        problems, _ = j.check(buf.getvalue())
        if code != 0 or problems:
            failures.append([f"exit code {code}", *problems[:3]])
        return wall

    cfg = ps.load_config(job.config)
    alpha, beta = cfg.packet_alpha, cfg.packet_beta
    grid = cfg.grid or ps.SpatialGrid(**scenario_gen.GRID)
    alpha_g = ps.normalize(ps.sample(alpha, grid))
    beta_g = ps.normalize(ps.sample(beta, grid))
    sa, sb = ps.split(alpha_g, cfg.splitter), ps.split(beta_g, cfg.splitter)
    t = 0.5 * scenario_gen.max_flight_time(job.scenario)
    geom = ps.ExperimentGeometry(l1=cfg.l1, l2=cfg.l2_min, c=cfg.c)
    prep = ps.Preparation(phi=cfg.preparation_phi)

    def sweep(n: int):
        l2 = [cfg.l2_min + (cfg.l2_max - cfg.l2_min) * i / max(n - 1, 1) for i in range(n)]
        return ps.sweep_d2(alpha, beta, cfg.splitter, geom, l2, prep, alpha.k0, beta.k0)

    large = sweep(spec.spread_n)
    micro = {
        "config.load_config_us": (1e6, lambda: ps.load_config(job.config)),
        "packets.gaussian_overlap_us": (1e6, lambda: ps.inner_product(alpha, beta)),
        "packets.grid_inner_product_us": (1e6, lambda: ps.inner_product(alpha_g, beta_g)),
        "packets.propagate_us": (1e6, lambda: ps.propagate(sa.arm1, t, cfg.c)),
        "packets.fits_after_us": (
            1e6, lambda: ps.fits_after(sa.arm1, t, cfg.c, ps.packets.DEFAULT_WRAP_TOL)
        ),
        "packets.realize_ms": (
            1e3, lambda: ps.spectral_centroid(ps.normalize(ps.sample(alpha, grid)))
        ),
        "optics.overlap_at_time_us": (1e6, lambda: ps.overlap_at_time(sa, sb, t, cfg.c)),
        "models.sweep_d2_us_per_row": (1e6 / spec.n_points, lambda: sweep(spec.n_points)),
        "models.spread_ms": (1e3, lambda: large.spread("rate_plane_wave")),
    }
    budget = 0.4 * seconds / len(micro)
    metrics = {name: scale * _per_call_s(fn, budget) for name, (scale, fn) in micro.items()}

    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    large.spread("rate_plane_wave")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    metrics["models.spread_peak_mb"] = (peak - base) / 2**20

    metrics["cli.import_ms"] = _import_ms(0.2 * seconds)

    # Alternate untraced and traced calls of the workload's own argv.
    recorder = spans.Recorder()
    targets = _targets(ps)
    untraced, traced = [], []
    deadline = time.perf_counter() + 0.3 * seconds
    while time.perf_counter() < deadline or len(traced) < 3:
        untraced.append(call_main(job))
        recorder.run_id += 1
        with recorder.installed(targets):
            traced.append(call_main(job, recorder))
    own_runs = range(1, recorder.run_id + 1)
    # The other subcommand, on its own seeded scenario, so that every
    # workload reports every cli self time.
    if spec.command == "sweep":
        other = Job(
            Spec("invariance", n_points=200, grid=True, times=spec.companion_times),
            seed, workdir, tag="-companion",
        )
    else:
        other = Job(Spec("sweep", n_points=spec.n_points, grid=False), seed, workdir, tag="-companion")
    other_runs = []
    for _ in range(3):
        recorder.run_id += 1
        other_runs.append(recorder.run_id)
        with recorder.installed(targets):
            call_main(other, recorder)
    inv_job, inv_runs = (job, own_runs) if spec.command == "invariance" else (other, other_runs)
    sweep_job, sweep_runs = (job, own_runs) if spec.command == "sweep" else (other, other_runs)

    self_ns = recorder.self_times_ns()
    metrics["cli.run_sweep_self_us_per_row"] = statistics.median(
        sum(self_ns[r]["cli.run_sweep"]) for r in sweep_runs) / 1e3 / sweep_job.rows
    metrics["cli.run_invariance_self_ms"] = statistics.median(
        sum(self_ns[r]["cli.run_invariance_report"]) for r in inv_runs) / 1e6
    metrics["optics.overlap_at_time_self_us"] = statistics.median(
        ns for r in inv_runs for ns in self_ns[r]["cli.overlap_at_time"]) / 1e3
    calls = {len(self_ns[r]["optics.propagate"]) for r in inv_runs}
    if len(calls) != 1:
        failures.append([f"propagate call count differs between traced runs: {calls}"])
    metrics["packets.propagate_calls_per_row"] = max(calls) / inv_job.rows
    # The companion wrote elsewhere, so the workload's own output is still here.
    header_bytes = len(job.out.read_bytes().split(b"\n", 1)[0]) + 1
    metrics["cli.csv_bytes_per_row"] = (job.out.stat().st_size - header_bytes) / job.rows
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )

    summary = {}
    for by_name in self_ns.values():
        for name, values in by_name.items():
            entry = summary.setdefault(name, {"spans": 0, "self_ms": 0.0})
            entry["spans"] += len(values)
            entry["self_ms"] += sum(values) / 1e6
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "notes": {
            "traced_runs": len(traced),
            "companion_runs": len(other_runs),
            "self_time_by_span": summary,
        },
        "spans": [s._asdict() for s in recorder.spans if s is not None],
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--report", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "platesim" / "cli.py").is_file():
        print(f"error: no platesim sources under {SRC}", file=sys.stderr)
        return 2

    facts = machine_facts()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        job = Job(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            result = measure_layers(job, args.seed, args.seconds, workdir)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            result = measure_end_to_end(job, args.seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    facts["loadavg_end"] = os.getloadavg()

    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names {sorted(metrics)} != {sorted(units)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for key, value in facts.items():
        print(f"  {key}: {value}")
    for name in units:
        moves = f"  (moves {PER_LAYER[name][1]})" if args.trace else ""
        print(f"  {name} = {metrics[name]:.6g} {units[name]}{moves}")
    for key, value in result["notes"].items():
        print(f"  {key}: {json.dumps(value)}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")

    if args.report:
        report = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, machine=facts)
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
