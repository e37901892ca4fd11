"""Command-line orchestrator.

Commands: kappa, converge, variations, sextic, hermite, scaling, taylor,
audit.  Each command writes report.json, the sample CSVs it produces, and
manifest.json into <output_dir>/<command>/.  Reports are written to a
temporary file and atomically renamed, and the manifest hash covers the
content hashes of every emitted file, so identical configurations produce
identical reports and manifest hashes on one platform.

Exit codes: 0 success, 2 configuration error, 3 capability limit,
4 acceptance-check failure under --check.

Config files are plain text key=value lines under a [command] header; the
keys are the flag names with "_" for "-", and any other key is an error:

    [converge]
    n_list = 1024,2048
    replications = 500
    integrand = x^2; sin
    master_seed = 20260810
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .analysis import Estimator
from .errors import CapabilityError, ConfigError, DomainError
from .experiments import (
    DEFAULT_TRUNCATION,
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
from .sampler import RNG_STREAM_VERSION, Method
from .variations import parse_integrand

DEFAULT_MASTER_SEED = 2
DEFAULT_N_LIST = (256, 512, 1024, 2048, 4096)

# check tolerances, shared with the acceptance suite
KAPPA_SQ_REF, KAPPA_SQ_TOL = 5.391, 1e-3
KAPPA_REF, KAPPA_TOL = 2.322, 5e-3
IDENTITY_TOL = 1e-10
CUBIC_VAR_RTOL = 0.10
CUBIC_CORR_MAX = 0.08
HERMITE_VAR_RTOL = 0.10
SLOPE_FLOORS = {
    Estimator.CUBIC_4TH: 1.8,
    Estimator.QUINTIC_2ND: 1.2,
    Estimator.WEIGHTED_CUBIC_2ND: 0.9,
}
SLOPE_R2_MIN = 0.95
TAYLOR_R6_TOL = 1e-9
ANCHOR_SUM_MAX = 0.01
ORTHOGONALITY_TOL = 1e-8
# a Monte Carlo mean passes within this many standard errors of its target
MEAN_SE_MULT = 3.0


@dataclass
class ExperimentConfig:
    command: str
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    horizon: float = 1.0
    replications: int = 500
    master_seed: int = DEFAULT_MASTER_SEED
    integrand: str = "sin"
    method: Method = Method.CIRCULANT
    refinement_factor: int = 4
    truncation: int = DEFAULT_TRUNCATION
    output_dir: str = "out"
    check: bool = False
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)

    def validate(self) -> None:
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ConfigError("n_list must hold positive grid sizes")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        for n in self.n_list:
            if abs(n * self.horizon - round(n * self.horizon)) > 1e-9:
                raise ConfigError(f"n * horizon = {n * self.horizon} not integral")
        if self.replications < 1:
            raise ConfigError("replications must be positive")
        if self.refinement_factor not in (2, 4, 8):
            raise ConfigError("refinement_factor must be 2, 4, or 8")
        if self.truncation < 0:
            raise ConfigError("truncation must be nonnegative")
        if self.workers < 1:
            raise ConfigError("workers must be positive")

    def echo(self) -> dict:
        return {**asdict(self), "n_list": list(self.n_list), "method": self.method.value}


def _parse_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    section = None
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    if section:
        values.setdefault("command", section)
    return values


# spellings of the boolean config values; any other value is a ConfigError
_FLAG_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    file_values = _parse_config_file(args.config) if args.config else {}
    command = args.command or file_values.get("command")
    if not command:
        raise ConfigError("no command given (flag or [section] in config)")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")

    # omitted keys take the ExperimentConfig defaults
    casts = {
        "n_list": lambda text: tuple(int(part) for part in text.split(",") if part.strip()),
        "horizon": float,
        "replications": int,
        "master_seed": int,
        "integrand": str,
        "method": lambda text: Method(text.lower()),
        "refinement_factor": int,
        "truncation": int,
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
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _samples_csv(columns: dict[str, np.ndarray], t: float | None = None) -> bytes:
    names = list(columns)
    head = ["replication"] + (["t"] if t is not None else []) + names
    rows = [",".join(head)]
    n = len(next(iter(columns.values())))
    tcol = [repr(float(t))] if t is not None else []
    for r in range(n):
        rows.append(",".join([str(r), *tcol, *(repr(float(columns[c][r])) for c in names)]))
    return ("\n".join(rows) + "\n").encode("utf-8")


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
# Each command takes the config and the run's Emitter (for its sample CSVs)
# and returns its report and whether its acceptance checks hold; main writes
# report.json and the manifest and chooses the exit code.


def cmd_kappa(cfg: ExperimentConfig, emitter: Emitter) -> tuple[dict, bool]:
    kc = kappa_constant(cfg.truncation)
    payload = {
        "kappa": kc.kappa,
        "kappa_sq": kc.kappa_sq,
        "truncation_radius": kc.truncation_radius,
        "tail_bound": kc.tail_bound,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    checks = {
        "kappa_sq_close": abs(kc.kappa_sq - KAPPA_SQ_REF) <= KAPPA_SQ_TOL,
        "kappa_close": abs(kc.kappa - KAPPA_REF) <= KAPPA_TOL,
    }
    return {**payload, "checks": checks}, all(checks.values())


def cmd_converge(cfg: ExperimentConfig, emitter: Emitter) -> tuple[dict, bool]:
    integrands = parse_integrand_list(cfg.integrand)
    report = {"per_n": []}
    ok = True
    for n in cfg.n_list:
        result = converge_experiment(
            n,
            cfg.horizon,
            cfg.replications,
            cfg.master_seed,
            integrands,
            cfg.method,
            cfg.refinement_factor,
            cfg.workers,
        )
        emitter.emit(f"estimator_n{n}.csv", _samples_csv(result.est, t=cfg.horizon))
        emitter.emit(f"oracle_n{n}.csv", _samples_csv(result.orc, t=cfg.horizon))
        ks = {
            name: {
                "statistic": res.statistic,
                "critical_001": res.critical_001,
                "margin": res.critical_001 - res.statistic,
                "rejects": res.rejects_at_1pct,
            }
            for name, res in result.ks.items()
        }
        ok = ok and not any(entry["rejects"] for entry in ks.values())
        report["per_n"].append(
            {
                "n": n,
                "refinement": result.refinement,
                "ks": ks,
                "estimator_correlations": result.est_corr.tolist(),
                "oracle_correlations": result.orc_corr.tolist(),
            }
        )
    report["all_ks_accepted"] = ok
    return report, ok


def cmd_variations(cfg: ExperimentConfig, emitter: Emitter) -> tuple[dict, bool]:
    # identities are checked at every grid; the distributional checks
    # (variance near kappa^2, decorrelation from B) are asymptotic and
    # apply at the largest grid only
    kc = kappa_constant(cfg.truncation)
    n_top = max(cfg.n_list)
    report = {"per_n": []}
    ok = True
    for n in cfg.n_list:
        result = identity_experiment(
            n, cfg.horizon, cfg.replications, cfg.master_seed, cfg.method, cfg.workers
        )
        identities_ok = all(v <= IDENTITY_TOL for v in result.max_rel_residuals.values())
        var_ok = abs(result.vn_variance - kc.kappa_sq) <= CUBIC_VAR_RTOL * kc.kappa_sq
        corr_ok = abs(result.vn_b1_corr) < CUBIC_CORR_MAX
        ok = ok and identities_ok and (n != n_top or (var_ok and corr_ok))
        emitter.emit(
            f"cubic_n{n}.csv", _samples_csv({"B": result.b1, "cubic": result.vn})
        )
        report["per_n"].append(
            {
                "n": n,
                "max_rel_residuals": result.max_rel_residuals,
                "cubic_variance": result.vn_variance,
                "kappa_sq": kc.kappa_sq,
                "cubic_b_corr": result.vn_b1_corr,
                "identities_ok": identities_ok,
                "variance_ok": var_ok,
                "corr_ok": corr_ok,
            }
        )
    report["all_ok"] = ok
    return report, ok


def cmd_sextic(cfg: ExperimentConfig, emitter: Emitter) -> tuple[dict, bool]:
    result = sextic_experiment(
        cfg.n_list,
        cfg.horizon,
        cfg.replications,
        cfg.master_seed,
        cfg.method,
        workers=cfg.workers,
    )
    mean_ok = abs(result.mean_value - result.mean_target) <= MEAN_SE_MULT * result.mean_se
    report = {
        "n_list": result.n_list,
        "median_sup_deviation": result.medians,
        "medians_decreasing": result.medians_decreasing,
        "mean_n": result.mean_n,
        "mean_value": result.mean_value,
        "mean_se": result.mean_se,
        "mean_target": result.mean_target,
        "mean_ok": mean_ok,
    }
    return report, result.medians_decreasing and mean_ok


def _file_tag(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label)


def cmd_hermite(cfg: ExperimentConfig, emitter: Emitter) -> tuple[dict, bool]:
    # mean checks apply everywhere; the variance check is asymptotic and
    # applies at the largest grid only
    integrands = parse_integrand_list(cfg.integrand)
    n_top = max(cfg.n_list)
    report = {"per_integrand": []}
    ok = True
    for g in integrands:
        if not g.is_bounded:
            print(
                f"warning: integrand {g.label!r} is unbounded; the fdd limits "
                "assume bounded maps, proceeding anyway",
                file=sys.stderr,
            )
        for n in cfg.n_list:
            result = hermite_experiment(
                n,
                cfg.horizon,
                cfg.replications,
                cfg.master_seed,
                g,
                cfg.method,
                cfg.workers,
            )
            stats = result.summary()
            mean_ok = (
                abs(stats["left_mean"] - result.mean_limit) <= MEAN_SE_MULT * stats["left_se"]
            )
            right_ok = (
                abs(stats["right_mean"] + result.mean_limit) <= MEAN_SE_MULT * stats["right_se"]
            )
            var_ok = (
                abs(stats["left_variance"] - result.variance_limit)
                <= HERMITE_VAR_RTOL * result.variance_limit
            )
            ok = ok and mean_ok and right_ok and (n != n_top or var_ok)
            emitter.emit(
                f"hermite_{_file_tag(g.label)}_n{n}.csv",
                _samples_csv({"left": result.left, "right": result.right}),
            )
            report["per_integrand"].append(
                {
                    "integrand": g.label,
                    "bounded": result.bounded,
                    "n": n,
                    **stats,
                    "left_mean_ok": mean_ok,
                    "right_mean_ok": right_ok,
                    "variance_ok": var_ok,
                }
            )
    report["all_ok"] = ok
    return report, ok


def cmd_scaling(cfg: ExperimentConfig, emitter: Emitter) -> tuple[dict, bool]:
    result = scaling_experiment(
        cfg.master_seed,
        cfg.replications,
        integrand=parse_integrand(cfg.integrand),
        method=cfg.method,
        workers=cfg.workers,
    )
    report = {"per_estimator": [], "replications": cfg.replications}
    ok = True
    for estimator, fit in result.fits.items():
        floor = SLOPE_FLOORS[estimator]
        est_ok = fit.slope >= floor and fit.r_squared >= SLOPE_R2_MIN
        ok = ok and est_ok
        report["per_estimator"].append(
            {
                "estimator": estimator.value,
                "slope": fit.slope,
                "slope_floor": floor,
                "r_squared": fit.r_squared,
                "points": [list(p) for p in fit.points],
                "spec": {
                    "n": result.specs[estimator]["n"],
                    "horizon": result.specs[estimator].get("horizon"),
                    "gaps": list(result.specs[estimator]["gaps"]),
                },
                "ok": est_ok,
            }
        )
    report["all_ok"] = ok
    return report, ok


def cmd_taylor(cfg: ExperimentConfig, emitter: Emitter) -> tuple[dict, bool]:
    result = taylor_experiment(cfg.master_seed, pairs=1000)
    ok = result.max_poly_r6 < TAYLOR_R6_TOL and result.gamma_exact
    return {**asdict(result), "ok": ok}, ok


def cmd_audit(cfg: ExperimentConfig, emitter: Emitter) -> tuple[dict, bool]:
    result = audit_experiment(cfg.n_list, cfg.horizon)
    top = max(row["n"] for row in result.anchor_sums)
    top_row = next(row for row in result.anchor_sums if row["n"] == top)
    sums_ok = (
        result.anchor_sums_decreasing()
        and top_row["left"] < ANCHOR_SUM_MAX
        and top_row["right"] < ANCHOR_SUM_MAX
    )
    orth_ok = result.orthogonality_max_dev < ORTHOGONALITY_TOL
    ok = sums_ok and orth_ok
    report = {
        "covariance_audits": result.covar,
        "anchored_cube_sums": result.anchor_sums,
        "anchored_sums_decreasing": result.anchor_sums_decreasing(),
        "orthogonality_max_dev": result.orthogonality_max_dev,
        "ok": ok,
    }
    return report, ok


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
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--replications", type=int)
    parser.add_argument("--master-seed", dest="master_seed", type=int)
    parser.add_argument(
        "--integrand", help="integrand spec, semicolon-separated for several"
    )
    parser.add_argument("--method", choices=[m.value for m in Method])
    parser.add_argument("--refinement-factor", dest="refinement_factor", type=int)
    parser.add_argument("--truncation", type=int)
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
        report, ok = _COMMANDS[cfg.command](cfg, emitter)
        emitter.emit("report.json", _json_bytes(report))
        emitter.finish()
        return 0 if ok or not cfg.check else 4
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
