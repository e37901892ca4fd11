"""Command-line orchestrator.

Commands: kappa, converge, variations, sextic, hermite, scaling, taylor,
audit.  Every run is on the unit interval [0, 1]: B is self-similar, so a
run on [0, T] is a unit-interval run on nT steps with a rescaled integrand.
Each command writes report.json, the sample CSVs it produces, and
manifest.json into <output_dir>/<command>/, only once report.json has
serialised, so a refused report leaves no file.  Files are written to a
temporary file and atomically renamed, and the manifest hash covers the
content hashes of every emitted file, so identical configurations produce
identical reports and manifest hashes per numpy version and SIMD dispatch.

Exit codes: 0 success, 2 configuration error, 3 capability limit,
4 acceptance-check failure under --check, with one "check failed" line
per failed check on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

# CPython's own SHA-256, the digest hashlib.sha256 gives, without mapping
# OpenSSL's libcrypto into every process
if sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256

import numpy as np

from . import __version__
from .checks import judge
from .errors import CapabilityError, DomainError
from .experiments import (
    TIMINGS,
    audit_experiment,
    converge_experiment,
    hermite_experiment,
    identity_experiment,
    scaling_experiment,
    sextic_experiment,
    taylor_experiment,
    usable_cores,
)
from .kernel import kappa_constant
from .sampler import RNG_STREAM_VERSION, Grid
from .variations import parse_integrand, parse_integrand_list

DEFAULT_MASTER_SEED = 2
DEFAULT_N_LIST = (256, 512, 1024, 2048, 4096)


@dataclass
class ExperimentConfig:
    command: str
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    replications: int = 500
    master_seed: int = DEFAULT_MASTER_SEED
    integrand: str = "sin"
    output_dir: str = "out"
    check: bool = False
    workers: int = field(default_factory=usable_cores)

    def validate(self) -> None:
        if not self.n_list:
            raise DomainError("n_list must hold at least one grid size")
        if len(set(self.n_list)) < len(self.n_list):
            raise DomainError(f"n_list repeats a grid size: {self.n_list}")
        for n in self.n_list:  # the Grid refuses a bad size
            Grid(n)
        if not 0 <= self.master_seed < 2**64:  # SeedPolicy keys on the seed's low 64 bits
            raise DomainError(f"master_seed must lie in [0, 2^64): {self.master_seed}")
        if self.replications < 2:  # a sample variance needs two paths
            raise DomainError("replications must be at least 2")
        if self.workers < 1:
            raise DomainError("workers must be positive")

    def echo(self) -> dict:
        return {**asdict(self), "n_list": list(self.n_list)}


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    # omitted flags take the ExperimentConfig defaults
    values = {name: value for name, value in vars(args).items() if value is not None}
    if "n_list" in values:
        try:
            values["n_list"] = tuple(int(part) for part in args.n_list.split(",") if part.strip())
        except ValueError as exc:
            raise DomainError(f"bad config value for n_list: {args.n_list!r}") from exc
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


# --- output helpers -----------------------------------------------------------


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_bytes(payload) -> bytes:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN and Infinity are not JSON
        raise DomainError("the report holds a non-finite value (NaN or Infinity)") from exc
    return (text + "\n").encode("utf-8")


def _samples_csv(columns: dict[str, np.ndarray]) -> bytes:
    names = list(columns)
    buffer = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")  # one copy: bytes
    out = csv.writer(buffer, lineterminator="\n")  # RFC 4180 quotes a name such as int_poly:1,2
    out.writerow(["replication", *names])
    for r in range(len(next(iter(columns.values())))):
        out.writerow([r, *(repr(float(columns[c][r])) for c in names)])
    return buffer.detach().getvalue()


# float64 ufuncs whose SIMD kernel, and so whose last bit, numpy picks by CPU
DISPATCH_UFUNCS = ("cbrt", "exp", "sin", "cos", "log")


def _dispatch() -> dict[str, str]:
    """numpy's current dispatch target of each DISPATCH_UFUNCS, or "unknown"."""
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
        info = opt_func_info("^(" + "|".join(DISPATCH_UFUNCS) + ")$", "^float64$")
    except ImportError:
        info = {}
    return {name: info.get(name, {}).get("dd", {}).get("current", "unknown")
            for name in DISPATCH_UFUNCS}


class Emitter:
    """Collects output files for one command run and writes the manifest."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.dir = os.path.join(cfg.output_dir, cfg.command)
        self.hashes: dict[str, str] = {}
        self.started = time.time()
        TIMINGS.clear()

    def emit(self, name: str, data: bytes) -> None:
        os.makedirs(self.dir, exist_ok=True)
        _write_atomic(os.path.join(self.dir, name), data)
        self.hashes[name] = sha256(data).hexdigest()

    def finish(self) -> None:
        import resource  # only now, so that it adds nothing to the peaks it reports
        per_mb = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss: bytes or KiB
        self_mb, workers_mb = (round(resource.getrusage(who).ru_maxrss / per_mb, 3)
                               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        digest = sha256()
        for name in sorted(self.hashes):
            digest.update(f"{name}:{self.hashes[name]}\n".encode())
        manifest = {
            "config": self.cfg.echo(),
            "artifact_version": __version__,
            "rng_stream_version": RNG_STREAM_VERSION,
            "platform": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
                "system": platform.system(),
                "dispatch": _dispatch(),
            },
            "wall_clock_s": round(time.time() - self.started, 3),
            "timings": {
                "draw_s": round(TIMINGS["draw_s"], 3),
                "stats_s": round(TIMINGS["stats_s"], 3),
                "pools": TIMINGS["pools"],
                "peak_rss_mb": self_mb,
                "workers_peak_rss_mb": workers_mb,
            },
            "files": self.hashes,
            "manifest_hash": digest.hexdigest(),
        }
        _write_atomic(os.path.join(self.dir, "manifest.json"), _json_bytes(manifest))


# --- commands -------------------------------------------------------------------
#
# Each command takes the config and returns the report its experiments built,
# with the verdicts of the check table added, the names of its gating checks
# that failed, and its sample CSVs by file name; main writes the files,
# report.json and the manifest, names the failures under --check and chooses
# the exit code.

Outcome = tuple[dict, list[str], dict[str, bytes]]


def _judged(cfg: ExperimentConfig, report: dict) -> Outcome:
    """A gridless report with its verdicts under checks and the overall ok."""
    checks, failed = judge(cfg.command, report)
    return {**report, "checks": checks, "ok": not failed}, failed, {}


def cmd_kappa(cfg: ExperimentConfig) -> Outcome:
    payload = asdict(kappa_constant())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return _judged(cfg, payload)


def _judge_rows(cfg: ExperimentConfig, runs, where, csv_name=None):
    """The rows of runs, (row, columns) pairs, with their verdicts, the failed
    gating checks, each after where(row), and each row's columns as the CSV
    csv_name(row).  TOP checks gate at the largest grid and on gridless rows."""
    rows, failed, files, top = [], [], {}, max(cfg.n_list)
    for row, cols in runs:
        if csv_name:
            files[csv_name(row)] = _samples_csv(cols)
        checks, bad = judge(cfg.command, row, where(row), row.get("n", top) == top)
        rows.append({**row, **checks})
        failed += bad
    return rows, failed, files


def cmd_converge(cfg: ExperimentConfig) -> Outcome:
    """The estimator corpus of each grid, judged without a sampled limit law:
    B(1) and the scaled cubic variation against N(0, 1), each integrand with
    g'' != 0 through its pivot, the others through the identity R_n = 0.
    all_ks_accepted, named for the KS rows of earlier reports, is the overall
    verdict."""
    integrands = parse_integrand_list(cfg.integrand)
    runs = converge_experiment(cfg.n_list, cfg.replications, cfg.master_seed, integrands,
                               cfg.workers)
    rows, failed, files = _judge_rows(
        cfg, ((row, est) for row, est, _ in runs),
        lambda row: f"n={row['n']} ", lambda row: f"estimator_n{row['n']}.csv",
    )
    return {"per_n": rows, "all_ks_accepted": not failed}, failed, files


def cmd_variations(cfg: ExperimentConfig) -> Outcome:
    rows, failed, files = _judge_rows(
        cfg, identity_experiment(cfg.n_list, cfg.replications, cfg.master_seed, cfg.workers),
        lambda row: f"n={row['n']} ", lambda row: f"cubic_n{row['n']}.csv",
    )
    return {"per_n": rows, "all_ok": not failed}, failed, files


def cmd_sextic(cfg: ExperimentConfig) -> Outcome:
    # its verdicts stay at the top level, where perfbench's VERDICTS reads them
    report = sextic_experiment(cfg.n_list, cfg.replications, cfg.master_seed, cfg.workers)
    checks, failed = judge("sextic", report)
    return {**report, **checks}, failed, {}


def cmd_hermite(cfg: ExperimentConfig) -> Outcome:
    integrands = parse_integrand_list(cfg.integrand)
    tags = ["".join(ch if ch.isalnum() else "_" for ch in g.label) for g in integrands]
    if len(set(tags)) < len(tags):  # one integrand's CSVs would overwrite another's
        raise DomainError(f"integrands share a CSV file name: {', '.join(tags)}")
    for g in integrands:
        if not g.is_bounded:
            print(f"warning: integrand {g.label!r} is unbounded; the fdd limits "
                  "assume bounded maps, proceeding anyway", file=sys.stderr)
    tag_of = dict(zip((g.label for g in integrands), tags))
    runs = hermite_experiment(cfg.n_list, cfg.replications, cfg.master_seed, integrands,
                              cfg.workers)
    rows, failed, files = _judge_rows(
        cfg, runs, lambda row: f"{row['integrand']} n={row['n']} ",
        lambda row: f"hermite_{tag_of[row['integrand']]}_n{row['n']}.csv",
    )
    return {"per_integrand": rows, "all_ok": not failed}, failed, files


def cmd_scaling(cfg: ExperimentConfig) -> Outcome:
    runs = scaling_experiment(cfg.master_seed, cfg.replications,
                              parse_integrand(cfg.integrand), cfg.workers)
    rows, failed, files = _judge_rows(cfg, ((row, None) for row in runs),
                                      lambda row: f"{row['estimator']} ")
    report = {"per_estimator": rows, "replications": cfg.replications, "all_ok": not failed}
    return report, failed, files


def cmd_taylor(cfg: ExperimentConfig) -> Outcome:
    return _judged(cfg, taylor_experiment())


def cmd_audit(cfg: ExperimentConfig) -> Outcome:
    return _judged(cfg, audit_experiment(cfg.n_list))


_COMMANDS = {
    "kappa": cmd_kappa,
    "converge": cmd_converge,
    "variations": cmd_variations,
    "sextic": cmd_sextic,
    "hermite": cmd_hermite,
    "scaling": cmd_scaling,
    "taylor": cmd_taylor,
    "audit": cmd_audit,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmlab",
        description="Monte Carlo laboratory for the sixth-root fractional "
        "Brownian motion and its weak Stratonovich limit theory",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--n-list", help="comma-separated grid sizes")
    parser.add_argument("--replications", type=int)
    parser.add_argument("--master-seed", type=int)
    parser.add_argument("--integrand", help="integrand spec, semicolon-separated for several")
    parser.add_argument("--output-dir")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--check", action="store_true",
                        help="exit 4 unless the command's acceptance checks pass")
    return parser


def main(argv=None) -> int:
    # Block OpenSSL's libcrypto before numpy.random loads it through secrets
    # and hmac, which fall back to CPython's own digests; hashlib.sha256 and
    # every manifest digest are the same either way.
    sys.modules.setdefault("_hashlib", None)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad flags; keep it a return
        return 2 if exc.code else 0
    try:
        cfg = _config_from(args)
        emitter = Emitter(cfg)
        report, failed, files = _COMMANDS[cfg.command](cfg)
        files["report.json"] = _json_bytes(report)  # refuses a non-finite report first
        for name, data in files.items():
            emitter.emit(name, data)
        emitter.finish()
        if not cfg.check:
            return 0
        for name in failed:
            print(f"check failed: {cfg.command} {name}", file=sys.stderr)
        return 4 if failed else 0
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a float past 1.8e308, e.g. an exp integrand's moment
        print(f"config error: non-finite value: {exc}", file=sys.stderr)
        return 2
    except (CapabilityError, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
