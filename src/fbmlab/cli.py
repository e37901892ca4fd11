"""Command-line orchestrator.

Commands: kappa, converge, variations, sextic, hermite, scaling, taylor,
audit.  Every run is on the unit interval [0, 1]: B is self-similar, so a
run on [0, T] is a unit-interval run on nT steps with a rescaled integrand.
Each command writes report.json, the sample CSVs it produces, and
manifest.json into <output_dir>/<command>/, only once report.json has
serialised, so a refused report leaves no file.  Files are written to a
temporary file and atomically renamed, and the manifest hash covers the
content hashes of every emitted file, so identical configurations produce
identical reports and manifest hashes on one platform.

Exit codes: 0 success, 2 configuration error, 3 capability limit,
4 acceptance-check failure under --check, with one "check failed" line
per failed check on stderr.

Config files are plain text key=value lines under one [command] header; the
keys are the flag names with "_" for "-", and any other key, a second
header, or a command key or command argument that differs from the header
is an error:

    [converge]
    n_list = 1024,2048
    replications = 500
    integrand = x^2; sin
    master_seed = 20260810
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .checks import judge
from .errors import CapabilityError, ConfigError, DomainError
from .experiments import (
    audit_experiment,
    converge_experiment,
    hermite_experiment,
    identity_experiment,
    parse_integrand_list,
    scaling_experiment,
    sextic_experiment,
    taylor_experiment,
)
from .kernel import kappa_constant
from .sampler import RNG_STREAM_VERSION, Grid
from .variations import parse_integrand

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
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)

    def validate(self) -> None:
        if not self.n_list:
            raise ConfigError("n_list must hold at least one grid size")
        if len(set(self.n_list)) < len(self.n_list):
            raise ConfigError(f"n_list repeats a grid size: {self.n_list}")
        for n in self.n_list:  # the Grid refuses a bad size
            Grid(n)
        if self.replications < 2:  # a sample variance needs two paths
            raise ConfigError("replications must be at least 2")
        if self.workers < 1:
            raise ConfigError("workers must be positive")

    def echo(self) -> dict:
        return {**asdict(self), "n_list": list(self.n_list)}


def _parse_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    section = None
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if section is not None:  # one file configures one command
                raise ConfigError(f"second [section] header in config: {raw!r}")
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    if section:
        if values.setdefault("command", section) != section:
            raise ConfigError(f"command {values['command']!r} differs from header [{section}]")
    return values


# spellings of the boolean config values; any other value is a ConfigError
_FLAG_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    file_values = _parse_config_file(args.config) if args.config else {}
    command = file_values.get("command")
    if args.command and command and args.command != command:
        raise ConfigError(f"command {args.command!r} differs from the config file's {command!r}")
    command = args.command or command
    if not command:
        raise ConfigError("no command given (flag or [section] in config)")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")

    # omitted keys take the ExperimentConfig defaults
    casts = {
        "n_list": lambda text: tuple(int(part) for part in text.split(",") if part.strip()),
        "replications": int,
        "master_seed": int,
        "integrand": str,
        "output_dir": str,
        "check": lambda text: _FLAG_WORDS[text.lower()],
        "workers": int,
    }
    unknown = sorted(set(file_values) - set(casts) - {"command"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    values = {}
    for name, cast in casts.items():
        value = getattr(args, name, None)
        if value is None:
            if name not in file_values:
                continue
            value = file_values[name]
        if isinstance(value, str):  # argparse has already typed the other flags
            try:
                value = cast(value)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad config value for {name}: {value!r}") from exc
        values[name] = value
    cfg = ExperimentConfig(command=command, **values)
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


def _samples_csv(columns: dict[str, np.ndarray], t: float | None = None) -> bytes:
    names = list(columns)
    buffer = io.StringIO()
    out = csv.writer(buffer, lineterminator="\n")  # RFC 4180 quotes a name such as int_poly:1,2
    out.writerow(["replication"] + (["t"] if t is not None else []) + names)
    n = len(next(iter(columns.values())))
    tcol = [repr(float(t))] if t is not None else []
    for r in range(n):
        out.writerow([r, *tcol, *(repr(float(columns[c][r])) for c in names)])
    return buffer.getvalue().encode("utf-8")


class Emitter:
    """Collects output files for one command run and writes the manifest."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.dir = os.path.join(cfg.output_dir, cfg.command)
        self.hashes: dict[str, str] = {}
        self.started = time.time()

    def emit(self, name: str, data: bytes) -> None:
        os.makedirs(self.dir, exist_ok=True)
        _write_atomic(os.path.join(self.dir, name), data)
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def finish(self) -> None:
        digest = hashlib.sha256()
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
            },
            "wall_clock_s": round(time.time() - self.started, 3),
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


def cmd_kappa(cfg: ExperimentConfig) -> Outcome:
    payload = asdict(kappa_constant())
    print(json.dumps(payload, indent=2, sort_keys=True))
    checks, failed = judge("kappa", payload)
    return {**payload, "checks": checks}, failed, {}


def cmd_converge(cfg: ExperimentConfig) -> Outcome:
    integrands = parse_integrand_list(cfg.integrand)
    rows, failed, files = [], [], {}
    for n in cfg.n_list:
        row, est, orc = converge_experiment(
            n, cfg.replications, cfg.master_seed, integrands, cfg.workers
        )
        files[f"estimator_n{n}.csv"] = _samples_csv(est, t=1.0)
        files[f"oracle_n{n}.csv"] = _samples_csv(orc, t=1.0)
        for key, ks in row["ks"].items():  # the KS row of each marginal and integrand
            failed += [f"{name} {key}" for name in judge("converge", ks, f"n={n} ")[1]]
        rows.append(row)
    return {"per_n": rows, "all_ks_accepted": not failed}, failed, files


def cmd_variations(cfg: ExperimentConfig) -> Outcome:
    rows, failed, files = [], [], {}
    for n in cfg.n_list:
        row, cols = identity_experiment(n, cfg.replications, cfg.master_seed, cfg.workers)
        files[f"cubic_n{n}.csv"] = _samples_csv(cols)
        checks, bad = judge("variations", row, f"n={n} ", n == max(cfg.n_list))
        rows.append({**row, **checks})
        failed += bad
    return {"per_n": rows, "all_ok": not failed}, failed, files


def cmd_sextic(cfg: ExperimentConfig) -> Outcome:
    report = sextic_experiment(cfg.n_list, cfg.replications, cfg.master_seed, cfg.workers)
    checks, failed = judge("sextic", report)
    return {**report, **checks}, failed, {}


def cmd_hermite(cfg: ExperimentConfig) -> Outcome:
    integrands = parse_integrand_list(cfg.integrand)
    tags = ["".join(ch if ch.isalnum() else "_" for ch in g.label) for g in integrands]
    if len(set(tags)) < len(tags):  # one integrand's CSVs would overwrite another's
        raise ConfigError(f"integrands share a CSV file name: {', '.join(tags)}")
    rows, failed, files = [], [], {}
    for g, tag in zip(integrands, tags):
        if not g.is_bounded:
            print(
                f"warning: integrand {g.label!r} is unbounded; the fdd limits "
                "assume bounded maps, proceeding anyway",
                file=sys.stderr,
            )
        for row, cols in hermite_experiment(
            cfg.n_list, cfg.replications, cfg.master_seed, g, cfg.workers
        ):
            n = row["n"]
            files[f"hermite_{tag}_n{n}.csv"] = _samples_csv(cols)
            checks, bad = judge("hermite", row, f"{g.label} n={n} ", n == max(cfg.n_list))
            rows.append({**row, **checks})
            failed += bad
    return {"per_integrand": rows, "all_ok": not failed}, failed, files


def cmd_scaling(cfg: ExperimentConfig) -> Outcome:
    rows = scaling_experiment(
        cfg.master_seed, cfg.replications, parse_integrand(cfg.integrand), cfg.workers
    )
    failed = []
    for row in rows:
        checks, bad = judge("scaling", row, f"{row['estimator']} ")
        row.update(checks)
        failed += bad
    report = {"per_estimator": rows, "replications": cfg.replications, "all_ok": not failed}
    return report, failed, {}


def cmd_taylor(cfg: ExperimentConfig) -> Outcome:
    report = taylor_experiment(cfg.master_seed, pairs=1000)
    failed = judge("taylor", report)[1]
    return {**report, "ok": not failed}, failed, {}


def cmd_audit(cfg: ExperimentConfig) -> Outcome:
    report = audit_experiment(cfg.n_list)
    failed = judge("audit", report)[1]
    return {**report, "ok": not failed}, failed, {}


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
    parser.add_argument("command", nargs="?", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="key=value config file with a [command] header")
    parser.add_argument("--n-list", dest="n_list", help="comma-separated grid sizes")
    parser.add_argument("--replications", type=int)
    parser.add_argument("--master-seed", dest="master_seed", type=int)
    parser.add_argument(
        "--integrand", help="integrand spec, semicolon-separated for several"
    )
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--check", action="store_const", const=True, default=None,
                        help="exit 4 unless the command's acceptance checks pass")
    return parser


def main(argv=None) -> int:
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
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
