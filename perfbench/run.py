"""fbmlab benchmark: time one workload of CLI commands end to end, or trace it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory that holds
``src/fbmlab``).  Each command of the workload runs as a fresh
``python -m fbmlab.cli`` process with ``--check``, ``--master-seed N`` and
the README problem sizes, one command at a time; the workload is repeated
until S seconds have passed.  CLI output goes to a scratch directory inside
the checkout, which is removed on exit.

``--trace 0`` uses ``--workers`` equal to the usable core count and prints
the end-to-end metrics, each a median over passes: ``wall_s``; ``cpu_s``,
user plus system time of the command processes and the pool workers they
waited for; ``peak_rss_mb``, the largest RSS of any process in the pass;
and ``setup_s``, the wall time of a fresh process that imports fbmlab.cli
and samples one path on each grid the workload uses (median of
SETUP_REPEATS such processes).  ``--trace 1`` runs one such pass for reference,
then alternates an untraced and a traced pass at ``--workers 1`` (tracing
observes one process) and prints the per-layer metrics.  Both print the
environment, each command's exit code and the sha256 of its report.json,
and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

A command that exits 4 under --check ran correctly and returned a failed
statistical verdict; it counts towards ``check_fail_rate``, not ``failed``.
``failed`` counts commands that crashed or wrote no report.  ``correct``
requires every exit code to agree with its report's verdict and every
report.json to be identical across passes (iterations, worker counts,
traced or not).  The traced run also prints its work counts next to their
closed forms; ``perfbench/selftest.py`` requires them to match.

To see every workload: ``for w in oracle-converge mc-ladder exact-audit; do
python3 perfbench/run.py --workload $w --seed 2 --seconds 25 --trace 0; done``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

SETUP_REPEATS = 9
RUN_BUDGET_S = 170.0
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# --- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    # grids the commands sample on, as probe specs KIND:N:HORIZON
    grids: tuple[str, ...]
    # traced work counts in closed form from the command parameters
    counts: dict[str, int]


def _covar_audit_cov_elements(m: int, block: int = 512) -> int:
    """cov_r output elements of analysis.covar_bound_audit on m steps.

    Per row block of r endpoint rows (r' midpoint rows): 2 r m + 6 r' m
    elements in the matrix calls and r' + m in the two variance vectors;
    over all blocks sum r = m + 1 and sum r' = m.
    """
    blocks = math.ceil((m + 1) / block)
    return 2 * m * (m + 1) + 6 * m * m + m + blocks * m


# oracle-converge
CONV_N, CONV_REPS, CONV_INTEGRANDS, REFINE = 4096, 2000, "1; x; x^2; sin", 4
CONV_ORACLE_DRAWS = CONV_REPS * (2 * REFINE * CONV_N + REFINE * CONV_N)  # fBm + BM
# mc-ladder
VAR_NS, VAR_REPS = (1024, 4096), 500
SEXTIC_NS, SEXTIC_REPS = (256, 512, 1024, 2048, 4096), 200
HERM_N, HERM_REPS = 4096, 2000
SCALING_REPS, SCALING_STEPS = 500, (8192, 2048, 2048)  # package default windows
GL_NODES = 64  # quadrature.hermite_variance_limit default
LADDER_STEPS = (
    VAR_REPS * sum(VAR_NS)
    + SEXTIC_REPS * (sum(SEXTIC_NS) + max(SEXTIC_NS))  # medians, then the mean level
    + HERM_REPS * HERM_N
    + SCALING_REPS * sum(SCALING_STEPS)
)
# exact-audit
AUDIT_NS = (256, 512, 1024, 2048, 4096)
TAYLOR_PAIRS, TAYLOR_POLYS = 1000, 25
HERMITE_ORDERS, CORRELATIONS = 5, 5  # orthogonality grid in audit_experiment


def _n_list(ns) -> str:
    return ",".join(str(n) for n in ns)


# The reason for each workload, and the layers it isolates, is stated next
# to it in BENCHMARK.json.
WORKLOADS = {
    "oracle-converge": Workload(
        commands=(
            ("converge", "--n-list", str(CONV_N), "--replications", str(CONV_REPS),
             "--integrand", CONV_INTEGRANDS),
        ),
        grids=(f"fbm:{CONV_N}:1", f"fbm:{REFINE * CONV_N}:1", f"bm:{REFINE * CONV_N}:1"),
        counts={
            "sampler.normals.draws": CONV_REPS * 2 * CONV_N + CONV_ORACLE_DRAWS,
            "sampler.sample_fbm.steps": CONV_REPS * (CONV_N + REFINE * CONV_N),
            "oracle.normals.draws": CONV_ORACLE_DRAWS,
            "oracle.weak_strat_integral.calls": CONV_REPS * len(CONV_INTEGRANDS.split(";")),
            "quadrature.expect_gauss_pair.calls": 0,
            "analysis.taylor_residual.calls": 0,
            "kernel.cov_r.elements": 0,
            "experiments.pool_starts": 2,
        },
    ),
    "mc-ladder": Workload(
        commands=(
            ("variations", "--n-list", _n_list(VAR_NS), "--replications", str(VAR_REPS)),
            ("sextic", "--n-list", _n_list(SEXTIC_NS), "--replications", str(SEXTIC_REPS)),
            ("hermite", "--n-list", str(HERM_N), "--replications", str(HERM_REPS),
             "--integrand", "sin"),
            ("scaling", "--replications", str(SCALING_REPS)),
        ),
        grids=tuple(f"fbm:{n}:1" for n in SEXTIC_NS) + ("fbm:8192:1", "fbm:8192:0.25"),
        counts={
            "sampler.normals.draws": 2 * LADDER_STEPS,
            "sampler.sample_fbm.steps": LADDER_STEPS,
            "oracle.normals.draws": 0,
            "oracle.weak_strat_integral.calls": 0,
            "quadrature.expect_gauss_pair.calls": GL_NODES * GL_NODES,
            "analysis.taylor_residual.calls": 0,
            "kernel.cov_r.elements": GL_NODES * GL_NODES,
            "experiments.pool_starts": len(VAR_NS) + len(SEXTIC_NS) + 1 + 1,
        },
    ),
    "exact-audit": Workload(
        commands=(("kappa",), ("taylor",), ("audit", "--n-list", _n_list(AUDIT_NS))),
        grids=(),
        counts={
            "sampler.normals.draws": 0,
            "sampler.sample_fbm.steps": 0,
            "oracle.normals.draws": 0,
            "oracle.weak_strat_integral.calls": 0,
            "quadrature.expect_gauss_pair.calls": HERMITE_ORDERS**2 * CORRELATIONS,
            "analysis.taylor_residual.calls": (TAYLOR_POLYS + 1) * TAYLOR_PAIRS,
            "kernel.cov_r.elements": sum(_covar_audit_cov_elements(n) for n in AUDIT_NS),
            "experiments.pool_starts": 0,
        },
    ),
}

# how each command's report.json states its overall verdict
VERDICTS = {
    "kappa": lambda r: all(r["checks"].values()),
    "converge": lambda r: r["all_ks_accepted"],
    "variations": lambda r: r["all_ok"],
    "sextic": lambda r: r["medians_decreasing"] and r["mean_ok"],
    "hermite": lambda r: r["all_ok"],
    "scaling": lambda r: r["all_ok"],
    "taylor": lambda r: r["ok"],
    "audit": lambda r: r["ok"],
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def read_verdict(command: str, report: dict) -> bool | None:
    """The report's overall verdict, or None where the report states none."""
    try:
        return bool(VERDICTS[command](report))
    except (KeyError, TypeError):
        return None


# --- child processes ------------------------------------------------------------


@dataclass
class Finished:
    code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, env, deadline: float, stdout, stderr) -> Finished:
    """Run argv to completion in its own process group.

    Resource use comes from wait4, which reports the child together with
    the descendants it waited for (the CLI's pool workers).  The group is
    killed when the run's deadline passes.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
        start_new_session=True,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024.0,
    )


@dataclass
class CommandRun:
    command: str
    finished: Finished
    digest: str | None
    verdict: bool | None
    spans: dict | None = None

    @property
    def ran(self) -> bool:
        """The command completed and wrote a report."""
        return self.finished.code in (0, 4) and self.digest is not None

    @property
    def consistent(self) -> bool:
        expected = None if self.verdict is None else (0 if self.verdict else 4)
        return self.ran and expected in (None, self.finished.code)


@dataclass
class Pass:
    wall_s: float
    commands: list[CommandRun]

    @property
    def cpu_s(self) -> float:
        return sum(c.finished.cpu_s for c in self.commands)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.finished.max_rss_mb for c in self.commands)


class Bench:
    def __init__(self, workload: Workload, seed: int, scratch: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(scratch))
        self.env.update({name: "1" for name in THREAD_POOL_VARS})

    def probe(self) -> tuple[float, dict]:
        out = self.scratch / "probe.json"
        with open(out, "wb") as handle:
            done = run_process(
                [sys.executable, str(HERE / "probe.py"), str(self.seed), *self.workload.grids],
                self.env, self.deadline, handle, subprocess.DEVNULL,
            )
        if done.code != 0:
            raise RuntimeError(f"set-up probe exited {done.code}")
        return done.wall_s, json.loads(out.read_text())

    def run_pass(self, workers: int, traced: bool = False) -> Pass:
        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            runs = []
            start = time.perf_counter()
            for args in self.workload.commands:
                runs.append(self._command(args, workers, traced, out_dir))
            return Pass(time.perf_counter() - start, runs)
        finally:
            shutil.rmtree(out_dir)

    def _command(self, args, workers: int, traced: bool, out_dir: Path) -> CommandRun:
        command = args[0]
        flags = [
            *args, "--check", "--workers", str(workers), "--master-seed", str(self.seed),
            "--output-dir", str(out_dir),
        ]
        spans_path = out_dir / f"{command}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *flags]
        else:
            argv = [sys.executable, "-m", "fbmlab.cli", *flags]
        stderr_path = out_dir / f"{command}.stderr"
        with open(stderr_path, "wb") as err:
            done = run_process(argv, self.env, self.deadline, subprocess.DEVNULL, err)
        digest = verdict = None
        report = out_dir / command / "report.json"
        if report.exists():
            data = report.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            verdict = read_verdict(command, json.loads(data))
        run = CommandRun(command, done, digest, verdict)
        if traced and spans_path.exists():
            run.spans = json.loads(spans_path.read_text())
        if not run.ran:
            tail = stderr_path.read_text(errors="replace")[-2000:]
            print(f"command {command} exited {done.code}:\n{tail}", file=sys.stderr)
        return run


def have_sources() -> bool:
    if (SRC / "fbmlab" / "cli.py").is_file():
        return True
    print(f"no fbmlab sources under {SRC}; run from a source checkout", file=sys.stderr)
    return False


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under RUN_DIR, removed with RUN_DIR (if empty) on exit."""
    RUN_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=RUN_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()


# --- statistics and reporting ------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_commands(passes: list[Pass]) -> bool:
    """Print each command's exit code and report digest; True if all agree."""
    ok = True
    first = passes[0]
    for i, run in enumerate(first.commands):
        digests = {p.commands[i].digest for p in passes}
        codes = sorted({p.commands[i].finished.code for p in passes})
        same = len(digests) == 1 and None not in digests
        consistent = all(p.commands[i].consistent for p in passes)
        ok = ok and same and consistent
        print(
            f"command {run.command} exit={','.join(map(str, codes))} "
            f"report_sha256={run.digest} identical_across_passes={same} "
            f"exit_matches_verdict={consistent}"
        )
    return ok


def check_fail_rate(p: Pass) -> float:
    return sum(c.finished.code == 4 for c in p.commands) / len(p.commands)


def print_environment(args, workers: int, probe_info: dict) -> None:
    print(
        f"env workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={len(os.sched_getaffinity(0))} workers={workers} "
        f"{'traced_workers=1 ' if args.trace else ''}"
        f"python={probe_info['python']} numpy={probe_info['numpy']} "
        f"scipy={probe_info['scipy']} blas_threads=1"
    )


def merge_spans(p: Pass) -> dict:
    """Sum the span aggregates of a traced pass over its commands."""
    merged = {"spans": {}, "layer_inclusive_s": {}, "items_under_layer": {},
              "items_under_parent": {}}
    for run in p.commands:
        for name, stats in run.spans["spans"].items():
            into = merged["spans"].setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        for layer, seconds in run.spans["layer_inclusive_s"].items():
            merged["layer_inclusive_s"][layer] = merged["layer_inclusive_s"].get(layer, 0.0) + seconds
        for table in ("items_under_layer", "items_under_parent"):
            for outer, inner in run.spans[table].items():
                into = merged[table].setdefault(outer, {})
                for name, count in inner.items():
                    into[name] = into.get(name, 0) + count
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    spans = trace["spans"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def layer_self(layer: str, exclude=()) -> float:
        return sum(
            s["self_s"] for name, s in spans.items()
            if name.startswith(layer + ".") and name not in exclude
        )

    steps = span("sampler.sample_fbm", "items")
    fbm_draws = trace["items_under_parent"].get("sampler.sample_fbm", {}).get("sampler.normals", 0)
    variation_paths = sum(s["items"] for n, s in spans.items() if n.startswith("variations."))
    inclusive = trace["layer_inclusive_s"]
    return {
        "sampler.normals.self_s": (span("sampler.normals", "self_s"), "s"),
        "sampler.normals.draws": (span("sampler.normals", "items"), "count"),
        "sampler.sample_fbm.self_s": (span("sampler.sample_fbm", "self_s"), "s"),
        "sampler.sample_fbm.steps": (steps, "count"),
        "sampler.sample_bm.self_s": (span("sampler.sample_bm", "self_s"), "s"),
        "sampler.draws_per_step": (_ratio(fbm_draws, steps), "draws/step"),
        "sampler.ns_per_step": (1e9 * _ratio(span("sampler.sample_fbm", "total_s"), steps), "ns"),
        "oracle.limit_draw.self_s": (span("oracle.limit_draw", "self_s"), "s"),
        "oracle.weak_strat_integral.self_s": (span("oracle.weak_strat_integral", "self_s"), "s"),
        "oracle.weak_strat_integral.calls": (span("oracle.weak_strat_integral", "calls"), "count"),
        "oracle.normals.draws": (
            trace["items_under_layer"].get("oracle", {}).get("sampler.normals", 0), "count"),
        "oracle.share": (_ratio(inclusive.get("oracle", 0.0), inclusive.get("cli", 0.0)), "ratio"),
        "variations.riemann_strat.self_s": (span("variations.riemann_strat", "self_s"), "s"),
        "variations.signed_cubic.self_s": (span("variations.signed_cubic", "self_s"), "s"),
        "variations.weighted_hermite.self_s": (span("variations.weighted_hermite", "self_s"), "s"),
        "variations.us_per_path": (1e6 * _ratio(layer_self("variations"), variation_paths), "us"),
        "quadrature.hermite_variance_limit.self_s": (
            span("quadrature.hermite_variance_limit", "self_s"), "s"),
        "quadrature.expect_gauss_pair.calls": (span("quadrature.expect_gauss_pair", "calls"), "count"),
        "analysis.covar_bound_audit.self_s": (span("analysis.covar_bound_audit", "self_s"), "s"),
        "analysis.taylor_residual.self_s": (span("analysis.taylor_residual", "self_s"), "s"),
        "analysis.taylor_residual.calls": (span("analysis.taylor_residual", "calls"), "count"),
        "analysis.moment_scaling.self_s": (span("analysis.moment_scaling", "self_s"), "s"),
        "analysis.ks_two_sample.self_s": (span("analysis.ks_two_sample", "self_s"), "s"),
        "kernel.cov_r.self_s": (span("kernel.cov_r", "self_s"), "s"),
        "kernel.cov_r.elements": (span("kernel.cov_r", "items"), "count"),
        "kernel.rho.self_s": (span("kernel.rho", "self_s"), "s"),
        "kernel.hermite.self_s": (span("kernel.hermite", "self_s"), "s"),
        "experiments.self_s": (layer_self("experiments"), "s"),
        "experiments.pool_starts": (span("experiments._pmap", "items"), "count"),
        "cli.self_s": (layer_self("cli", exclude=("cli.emit",)), "s"),
        "cli.emit.self_s": (span("cli.emit", "self_s"), "s"),
        "cli.bytes_written": (span("cli.emit", "items"), "bytes"),
    }


# --- the two modes ------------------------------------------------------------------


def measure(bench: Bench, seconds: float, workers: int) -> tuple[list[Pass], dict]:
    passes = []
    start = time.monotonic()
    while not passes or (
        time.monotonic() - start < seconds and time.monotonic() < bench.deadline
    ):
        passes.append(bench.run_pass(workers))
        if not all(c.ran for c in passes[-1].commands):
            break
    metrics = {}
    for name, values in (
        ("wall_s", [p.wall_s for p in passes]),
        ("cpu_s", [p.cpu_s for p in passes]),
        ("peak_rss_mb", [p.peak_rss_mb for p in passes]),
    ):
        q1, med, q3 = quartiles(values)
        metrics[name] = med
        print(f"metric {name} median={med} q1={q1} q3={q3} samples={len(values)} "
              f"unit={END_TO_END_UNITS[name]}")
    return passes, metrics


def check_counts(workload: Workload, per_pass: list[dict]) -> bool:
    """Print each traced work count beside its closed form; True if all match."""
    ok = True
    for name, expected in workload.counts.items():
        seen = sorted({m[name][0] for m in per_pass})
        ok = ok and seen == [expected]
        print(f"count {name} traced={seen} closed_form={expected} match={seen == [expected]}")
    return ok


def trace(bench: Bench, seconds: float, workers: int) -> tuple[list[Pass], dict]:
    start = time.monotonic()
    reference = bench.run_pass(workers)
    passes = [reference]
    plain, traced = [], []
    while all(c.ran for p in passes for c in p.commands) and (
        not traced
        or (time.monotonic() - start < seconds and time.monotonic() < bench.deadline)
    ):
        plain.append(bench.run_pass(1))
        traced.append(bench.run_pass(1, traced=True))
        passes += [plain[-1], traced[-1]]
    if not traced or not all(c.spans for p in traced for c in p.commands):
        raise RuntimeError("a traced command wrote no spans")

    per_pass = [layer_metrics(merge_spans(p)) for p in traced]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        metrics[name] = (statistics.median_low(m[name][0] for m in per_pass), unit)
    metrics["experiments.core_utilisation"] = (
        reference.cpu_s / (len(os.sched_getaffinity(0)) * reference.wall_s), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain),
        "ratio")
    metrics["check_fail_rate"] = (check_fail_rate(reference), "ratio")
    check_counts(bench.workload, per_pass)
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not have_sources():
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    with scratch_dir() as scratch:
        bench = Bench(workload, args.seed, scratch, deadline)
        probes = [bench.probe() for _ in range(SETUP_REPEATS)]
        info = probes[0][1]
        if not Path(info["fbmlab_file"]).resolve().is_relative_to(SRC.resolve()):
            print(f"fbmlab imported from {info['fbmlab_file']}, not {SRC}", file=sys.stderr)
            return 2
        print_environment(args, workers, info)
        setup_walls = [wall for wall, _ in probes]
        q1, setup_s, q3 = quartiles(setup_walls)
        print(f"metric setup_s median={setup_s} q1={q1} q3={q3} samples={len(setup_walls)} unit=s")

        if args.trace:
            passes, layer = trace(bench, args.seconds, workers)
            layer["setup.import_s"] = (statistics.median(i["import_s"] for _, i in probes), "s")
            layer["setup.first_path_s"] = (
                statistics.median(i["first_path_s"] for _, i in probes), "s")
            metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
            for name, m in metrics.items():
                print(f"metric {name} value={m['value']} unit={m['unit']}")
        else:
            passes, e2e = measure(bench, args.seconds, workers)
            e2e["setup_s"] = setup_s
            metrics = {
                name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
            }
            print(f"metric check_fail_rate value={check_fail_rate(passes[0])} unit=ratio "
                  f"(commands exiting 4 under --check, of {len(passes[0].commands)})")
        outputs_ok = report_commands(passes)

    runs = [c for p in passes for c in p.commands]
    result = {
        "correct": outputs_ok,
        "attempted": len(runs),
        "failed": sum(not c.ran for c in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
