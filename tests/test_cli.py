import csv
import errno
import hashlib
import itertools
import importlib.util
import io
import json
import os
import re
import shlex
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fbmlab import analysis, checks, experiments, quadrature
from fbmlab.cli import (
    DISPATCH_UFUNCS,
    _build_parser,
    _config_from,
    _json_bytes,
    _samples_csv,
    main,
)
from fbmlab.errors import DomainError
from fbmlab.experiments import (
    SCALING_N,
    converge_experiment,
    hermite_experiment,
    identity_experiment,
    sextic_experiment,
    usable_cores,
)
from fbmlab.sampler import RNG_STREAM_VERSION, Grid
from fbmlab.variations import parse_integrand_list


# small runs of every Monte Carlo command
MONTE_CARLO_RUNS = (
    ("converge", "--n-list", "32", "--replications", "60", "--integrand", "1; x; x^2; sin"),
    ("variations", "--n-list", "64", "--replications", "40"),
    ("sextic", "--n-list", "32,64", "--replications", "30"),
    ("hermite", "--n-list", "64", "--replications", "60"),
    ("scaling", "--replications", "200"),
)


def load_benchmark_runner():
    """perfbench/run.py, loaded read-only: its read_verdict is how the
    benchmark reads each command's overall verdict from report.json."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKappaCommand:
    def test_prints_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "kappa", "--output-dir", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa_sq"] == pytest.approx(5.391, abs=1e-3)
        assert payload["kappa"] == pytest.approx(2.322, abs=5e-3)
        assert payload["truncation_radius"] == 10_000

    def test_check_passes(self, capsys, tmp_path):
        code, _, err = run(capsys, "kappa", "--check", "--output-dir", str(tmp_path))
        assert code == 0
        assert "check failed" not in err

    def test_check_failure_names_each_check(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(checks, "KAPPA_SQ_REF", 0.0)
        monkeypatch.setattr(checks, "KAPPA_REF", 0.0)
        code, _, err = run(capsys, "kappa", "--check", "--output-dir", str(tmp_path))
        assert code == 4
        # stderr names each failed check; the values stay in report.json
        assert err.splitlines() == [
            "check failed: kappa kappa_sq_close",
            "check failed: kappa kappa_close",
        ]


class TestConfigHandling:
    def test_bad_n_list(self, capsys, tmp_path):
        code, _, err = run(capsys, "kappa", "--n-list", "12,frog",
                           "--output-dir", str(tmp_path))
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("argv", [
        ("kappa", "--n-list", "0"),
        ("kappa", "--n-list", "64,-64"),
        ("sextic", "--n-list", "32", "--replications", "1"),
        ("audit", "--n-list", "1,64"),
        ("sextic", "--n-list", ","),
        ("scaling", "--replications", "199"),
        ("variations", "--n-list", "64", "--replications", "3"),
        ("sextic", "--n-list", "1" + "0" * 400),
        ("taylor", "--master-seed", "-1"),
        ("converge", "--master-seed", str(2**64)),
        ("converge", "--n-list", "64", "--replications", "49"),
    ])
    def test_degenerate_values_are_config_errors(self, capsys, tmp_path, argv):
        # a grid of no steps or a negative number of them, or no grid at all,
        # has no path, one replication has no sample variance, an audit of
        # one step has no lag for its ratio (v), the scaling fits need 200
        # replications, converge's KS 50 and the Fisher z of variations'
        # correlation 4; a grid of 10^400 steps overflows a float, and a seed
        # outside [0, 2^64) would draw the streams of its low 64 bits; each is
        # refused before anything is written
        code, _, err = run(capsys, *argv, "--check", "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "out").exists()

    def test_bad_method(self, capsys, tmp_path):
        # the sampling method is not a setting: every command samples with sample_fbm
        code, _, err = run(capsys, "kappa", "--method", "circulant",
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "--method" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting", ["refinement_factor = 4", "truncation = 0", "horizon = 0.35"]
    )
    def test_removed_settings_are_refused(self, capsys, tmp_path, setting):
        # the oracle refines 4-fold, kappa sums 10^4 lags and every run is on
        # [0, 1] (self-similarity turns [0, T] into it): none is a flag
        key, _, value = setting.partition(" = ")
        flag = "--" + key.replace("_", "-")
        code, _, err = run(capsys, "kappa", flag, value, "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert flag in err
        assert not (tmp_path / "out").exists()

    def test_config_file_is_refused(self, capsys, tmp_path):
        # flags are the one way to configure a run; there is no config file format
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\nmaster_seed = 1\n")
        code, _, err = run(capsys, "kappa", "--config", str(cfg),
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "unrecognized arguments: --config" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["converge", "hermite", "scaling"])
    @pytest.mark.parametrize("spec", ["0", "poly:0,0,0", "sin:0,1,0", "exp:0,1"])
    def test_zero_integrand_is_refused_before_drawing(self, capsys, monkeypatch, tmp_path,
                                                      command, spec):
        # converge's pivot of a zero map divides by sigma_n = 0, and its
        # correlations by a zero variance: the spec is refused before any draw
        def no_draws(*args, **kwargs):
            raise AssertionError("drew paths for a zero integrand")
        monkeypatch.setattr(experiments, "run_paths", no_draws)
        code, _, err = run(capsys, command, "--n-list", "64", "--replications", "200",
                           "--integrand", spec, "--check", "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"config error: integrand {spec!r} is identically zero" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")  # and without a RuntimeWarning on the way
    @pytest.mark.parametrize("command, spec, target", [
        ("converge", "exp:1,40", "riemann_mean_exact"),
        ("converge", "x^400", "riemann_mean_exact"),
        # m_n is finite but its square is not: the pivots' variance would overflow
        ("converge", "exp:1,27", "riemann_mean_exact squared"),
        ("converge", "exp:1,30", "riemann_mean_exact squared"),
        ("hermite", "exp:1,38", "hermite_mean_exact"),  # the exact targets come first
    ])
    def test_overflowing_exact_target_is_refused_before_drawing(
        self, capsys, monkeypatch, tmp_path, command, spec, target
    ):
        # at the README size; these used to draw every path and then fail on
        # a KS sample, an overflowing variance or a report holding a non-finite value
        def no_draws(*args, **kwargs):
            raise AssertionError("drew paths for a non-finite target")
        monkeypatch.setattr(experiments, "run_paths", no_draws)
        code, _, err = run(capsys, command, "--n-list", "4096", "--replications", "2000",
                           "--integrand", spec, "--check", "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"config error: integrand {spec!r}: {target} is non-finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_largest_squarable_exact_mean_still_draws(self, capsys, monkeypatch, tmp_path):
        # exp:1,26 has m_n = 6.34e146 at n = 256, whose square is finite
        class Drew(Exception):
            pass

        def drew(*args, **kwargs):
            raise Drew
        monkeypatch.setattr(experiments, "run_paths", drew)
        with pytest.raises(Drew):
            run(capsys, "converge", "--n-list", "256", "--replications", "200",
                "--integrand", "exp:1,26", "--output-dir", str(tmp_path / "out"))

    @pytest.mark.parametrize("spec", ["nan", "inf", "sin:1,nan,0", "exp:1,inf", "poly:0,1e400"])
    def test_nonfinite_integrand_is_a_config_error(self, capsys, tmp_path, spec):
        # a report built from it would hold NaN or Infinity, which are not JSON
        code, _, err = run(capsys, "hermite", "--n-list", "64", "--replications", "60",
                           "--check", "--integrand", spec, "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_statistics_are_a_config_error(self, capsys, tmp_path):
        # finite parameters whose values overflow on the sampled paths or in
        # their exact moments; hermite's squared limit mean of exp:1,30 and
        # exp:1,37 overflows a Python float, which raises OverflowError
        for command, spec in itertools.product(("hermite", "converge"),
                                               ("exp:1,1000", "exp:1,30", "exp:1,37")):
            code, _, err = run(capsys, command, "--n-list", "64", "--replications", "60",
                               "--check", "--integrand", spec, "--workers", "1",
                               "--output-dir", str(tmp_path / "out"))
            assert code == 2, (command, spec)
            assert "config error" in err and "non-finite" in err, (command, spec)
            assert not (tmp_path / "out").exists(), (command, spec)  # no sample CSV either

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_refuses_nonfinite_values(self, value):
        with pytest.raises(DomainError, match="non-finite"):
            _json_bytes({"rows": [{"value": value}]})

    @pytest.mark.parametrize("command", ["sextic", "variations"])
    def test_repeated_grid_is_a_config_error(self, capsys, tmp_path, command):
        code, _, err = run(capsys, command, "--n-list", "64,64", "--replications", "30",
                           "--check", "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "repeats" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["converge", "variations", "sextic", "hermite"])
    def test_grid_not_dividing_the_largest_is_refused_before_drawing(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # every grid is read from one path on the largest, which 96 steps
        # cannot be read from: refused before any path is drawn
        def no_draws(*args, **kwargs):
            raise AssertionError("drew paths for a grid ladder it refuses")
        monkeypatch.setattr(experiments, "sample_fbm_block", no_draws)
        code, _, err = run(capsys, command, "--n-list", "96,256", "--replications", "60",
                           "--check", "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "config error: grid sizes [96] do not divide the largest, 256" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["converge", "hermite"])
    def test_repeated_integrand_is_a_config_error(self, capsys, tmp_path, command):
        # converge keys its columns and KS rows by label, so "sin; sin" used
        # to exit 0 with one int_sin column
        code, _, err = run(capsys, command, "--n-list", "64", "--replications", "60",
                           "--integrand", "sin; sin", "--workers", "1",
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in err and "repeats" in err
        assert not (tmp_path / "out").exists()

    def test_integrands_sharing_a_csv_name_are_a_config_error(self, capsys, tmp_path):
        # both labels map to the file hermite_poly_1_2_n64.csv
        code, _, err = run(capsys, "hermite", "--n-list", "64", "--replications", "30",
                           "--integrand", "poly:1,2; poly:1.2",
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "share a CSV file name" in err
        assert not (tmp_path / "out").exists()

    def test_missing_command(self, capsys, tmp_path):
        code, *_ = run(capsys, "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_capability_exit(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "audit", "--n-list", "8192", "--output-dir", str(tmp_path),
        )
        assert code == 3
        assert "capability" in err

    def test_failed_fork_is_a_capability_error(self, capsys, monkeypatch, tmp_path):
        # a pids limit refuses the second worker: the first is killed and
        # reaped, and the command exits 3, naming the worker count
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        forks, fork = [], os.fork

        def refuse_second():
            forks.append(None)
            if len(forks) > 1:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", refuse_second)
        code, _, err = run(capsys, "sextic", "--n-list", "64", "--replications", "30",
                           "--workers", "2", "--output-dir", str(tmp_path / "out"))
        assert (code, len(forks)) == (3, 2)
        assert err == ("capability error: could not start worker 2 of 2: "
                       "[Errno 11] Resource temporarily unavailable\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (tmp_path / "out").exists()

    def test_unallocatable_grid_is_a_capability_error(self, capsys, tmp_path):
        # 2 * 10^15 doubles are 16 PB, beyond the 128 TiB x86-64 address
        # space, so the allocation is refused at once and uses no memory
        code, _, err = run(capsys, "sextic", "--n-list", str(10**15), "--replications", "2",
                           "--workers", "1", "--check", "--output-dir", str(tmp_path / "out"))
        assert code == 3
        assert err.startswith("capability error: ")
        assert not (tmp_path / "out").exists()

    def test_audit_above_cap_is_a_capability_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "audit", "--n-list", "8192", "--check",
                           "--output-dir", str(tmp_path))
        assert code == 3
        assert "capability" in err
        assert not (tmp_path / "audit" / "report.json").exists()


class TestReportsAndManifest:
    def test_converge_outputs(self, capsys, tmp_path):
        args = (
            "converge", "--n-list", "32", "--replications", "60",
            "--integrand", "1; x; sin",
            "--master-seed", "5", "--output-dir", str(tmp_path),
        )
        code, *_ = run(capsys, *args)
        assert code == 0
        base = tmp_path / "converge"
        report = json.loads((base / "report.json").read_text())
        row = report["per_n"][0]
        assert row["n"] == 32
        assert set(row["identities"]) == {"1", "x"} and set(row["pivots"]) == {"sin"}
        for name in ("normal_ks", "cubic_ks", "pivot_ks", "pivot_mean", "pivot_variance",
                     "identity"):
            for record in row[name].values():
                assert set(record) == {"value", "target", "tol", "margin", "ok"}
                assert record["margin"] == record["tol"] - abs(record["value"] - record["target"])
        assert row["identity"]["x"]["value"] == row["identities"]["x"]
        manifest = json.loads((base / "manifest.json").read_text())
        assert set(manifest["files"]) == {"estimator_n32.csv", "report.json"}
        for name, digest in manifest["files"].items():
            data = (base / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        assert manifest["config"]["command"] == "converge"

    def test_failed_check_prints_its_numbers(self, capsys, tmp_path, monkeypatch):
        # a pivot variance gate of 0 fails every pivot; stderr names the
        # column and the record, and the report's verdict agrees
        monkeypatch.setattr(checks, "PIVOT_VAR_TOL", 0.0)
        code, _, err = run(capsys, "converge", "--n-list", "64", "--replications", "60",
                           "--integrand", "x; sin", "--check", "--workers", "1",
                           "--output-dir", str(tmp_path))
        assert code == 4
        report = json.loads((tmp_path / "converge" / "report.json").read_text())
        assert report["all_ks_accepted"] is False
        record = report["per_n"][0]["pivot_variance"]["sin"]
        assert (
            f"check failed: converge n=64 pivot_variance sin (value {record['value']:.4g}, "
            f"target 1, tol 0, margin {record['margin']:.4g})"
        ) in err.splitlines()

    def test_csv_names_with_commas_are_quoted(self, capsys, tmp_path):
        code, *_ = run(capsys, "converge", "--n-list", "64", "--replications", "60",
                       "--integrand", "poly:1,2; sin", "--workers", "1",
                       "--output-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "converge" / "estimator_n64.csv", newline="",
                  encoding="utf-8") as handle:
            head, *rows = list(csv.reader(handle))
        assert head == ["replication", "B", "cubic", "int_poly:1,2", "int_sin"]
        assert len(rows) == 60
        assert all(len(row) == len(head) for row in rows)

    @pytest.mark.parametrize("columns", [
        {"B": [0.5, -1.25], "int_poly:1,2": [1e-300, 2.0]},
        {"edge": [-0.0, 5e-324, float("inf")], "x": [1.0, 0.1, -7e22]},
        {"one": [0.3]},
    ], ids=["quoted-name", "edge-values", "one-row"])
    def test_samples_csv_bytes_are_the_text_encoded(self, columns):
        # one byte buffer writes exactly what the text buffer, encoded, wrote
        columns = {name: np.array(values) for name, values in columns.items()}
        text = io.StringIO()
        out = csv.writer(text, lineterminator="\n")
        out.writerow(["replication", *columns])
        for r in range(len(next(iter(columns.values())))):
            out.writerow([r, *(repr(float(values[r])) for values in columns.values())])
        assert _samples_csv(columns) == text.getvalue().encode("utf-8")

    def test_samples_csv_peak_is_under_two_copies(self):
        # a text buffer, its str and the encoded bytes held 2.9 times the length
        rng = np.random.default_rng(3)
        columns = {f"c{k}": rng.standard_normal(2000) for k in range(7)}
        tracemalloc.start()
        try:
            data = _samples_csv(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(data)

    def test_manifest_records_engine_timings(self, capsys, tmp_path):
        # the engine's draw and statistics seconds, its pool count and the
        # peak RSS of the command and of its workers; a pool at --workers 2
        # wherever two cores are usable, none serially
        for workers in ("1", "2"):
            out = tmp_path / workers
            code, *_ = run(capsys, "sextic", "--n-list", "32,64,128", "--replications", "30",
                           "--workers", workers, "--output-dir", str(out))
            assert code == 0
            timings = json.loads((out / "sextic" / "manifest.json").read_text())["timings"]
            assert set(timings) == {"draw_s", "stats_s", "pools", "peak_rss_mb",
                                    "workers_peak_rss_mb"}
            assert timings["draw_s"] >= 0.0 and timings["stats_s"] >= 0.0
            assert timings["pools"] == int(workers == "2" and usable_cores() > 1)
            assert timings["peak_rss_mb"] > 1.0 and timings["workers_peak_rss_mb"] >= 0.0

    def test_manifest_peak_rss_of_the_command_and_its_workers(self, fresh_python, tmp_path):
        # in a fresh process: no worker was reaped at --workers 1, and at
        # --workers 2 each forked worker is counted; ru_maxrss is KiB on
        # Linux and bytes on macOS, either way in MB of 2^20 bytes here
        out = fresh_python(
            "import json, os, resource, sys\n"
            "from fbmlab import cli, experiments\n"
            "experiments.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "for workers in ('1', '2'):\n"
            f"    base = os.path.join({str(tmp_path)!r}, workers)\n"
            "    assert cli.main(['sextic', '--n-list', '32,64', '--replications', '30',\n"
            "                     '--workers', workers, '--output-dir', base]) == 0\n"
            "    with open(os.path.join(base, 'sextic', 'manifest.json')) as handle:\n"
            "        timings = json.load(handle)['timings']\n"
            "    print(workers, timings['peak_rss_mb'] > 1.0,\n"
            "          timings['workers_peak_rss_mb'] > 1.0)\n"
            "kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "sys.platform = 'darwin'\n"
            "cli.Emitter(cli.ExperimentConfig('sextic', output_dir=base)).finish()\n"
            "with open(os.path.join(base, 'sextic', 'manifest.json')) as handle:\n"
            "    print(json.load(handle)['timings']['peak_rss_mb'] == round(kib / 2**20, 3))\n"
        )
        assert out.splitlines()[-3:] == ["1 True False", "2 True True", "True"]

    @pytest.mark.parametrize("argv", MONTE_CARLO_RUNS, ids=lambda argv: argv[0])
    def test_one_grid_drawn_once_per_replication(self, capsys, monkeypatch, tmp_path, argv):
        # each command draws its largest grid (scaling: SCALING_N steps)
        # once per replication, and nothing else: replications x N steps
        drawn, block = Counter(), experiments.sample_fbm_block

        def counted(grid, seeds):
            drawn[grid] += len(seeds)
            return block(grid, seeds)
        monkeypatch.setattr(experiments, "sample_fbm_block", counted)
        code, *_ = run(capsys, *argv, "--workers", "1", "--output-dir", str(tmp_path))
        assert code == 0
        flags = dict(zip(argv[1::2], argv[2::2]))
        n = max(map(int, flags["--n-list"].split(","))) if "--n-list" in flags else SCALING_N
        replications = int(flags["--replications"])
        assert drawn == {Grid(n): replications}
        assert sum(grid.m * rows for grid, rows in drawn.items()) == replications * n

    def test_manifest_records_the_numeric_dispatch(self, capsys, monkeypatch, tmp_path):
        # numpy's kernel for each ufunc whose last bits differ by CPU, read when
        # the manifest is written, and "unknown" where numpy cannot report it
        from numpy.lib.introspect import opt_func_info

        def dispatch(out):
            assert run(capsys, "kappa", "--output-dir", str(out))[0] == 0
            return json.loads((out / "kappa" / "manifest.json").read_text())["platform"]["dispatch"]

        assert DISPATCH_UFUNCS == ("cbrt", "exp", "sin", "cos", "log")
        assert dispatch(tmp_path / "a") == {
            name: opt_func_info(f"^{name}$", "^float64$")[name]["dd"]["current"]
            for name in DISPATCH_UFUNCS
        }
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)  # as before numpy 2.0
        assert dispatch(tmp_path / "b") == dict.fromkeys(DISPATCH_UFUNCS, "unknown")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        # every Monte Carlo command writes the same bytes whatever the worker
        # count; scaling reduces its window moments in replication order
        for argv in MONTE_CARLO_RUNS:
            outputs = {}
            for workers in ("1", "2"):
                out = tmp_path / f"{argv[0]}-w{workers}"
                code, *_ = run(capsys, *argv, "--master-seed", "11",
                               "--workers", workers, "--output-dir", str(out))
                assert code == 0, argv[0]
                base = out / argv[0]
                manifest = json.loads((base / "manifest.json").read_text())
                assert manifest["rng_stream_version"] == RNG_STREAM_VERSION
                files = {name: (base / name).read_bytes() for name in manifest["files"]}
                outputs[workers] = (files, manifest["manifest_hash"])
            assert "report.json" in outputs["1"][0]
            assert outputs["1"] == outputs["2"], argv[0]

    def test_report_rows_are_the_experiment_rows(self, capsys, tmp_path):
        # the CLI adds only the verdicts: without them each report.json row is
        # the row the command's experiment returns, through a JSON round trip,
        # so the acceptance suite may judge the experiment rows directly
        experiment_rows = {
            "converge": lambda cfg, args: [
                row for row, _, _ in
                converge_experiment(cfg.n_list, *args, parse_integrand_list(cfg.integrand))
            ],
            "variations": lambda cfg, args: [
                row for row, _ in identity_experiment(cfg.n_list, *args)
            ],
            "sextic": lambda cfg, args: [sextic_experiment(cfg.n_list, *args)],
            "hermite": lambda cfg, args: [
                row for row, _ in
                hermite_experiment(cfg.n_list, *args, parse_integrand_list(cfg.integrand))
            ],
        }
        verdict_keys = {c.name for c in checks.CHECKS} | {"all_ok", "all_ks_accepted"}
        for argv in MONTE_CARLO_RUNS:
            if argv[0] not in experiment_rows:
                continue
            argv = [*argv, "--master-seed", "11", "--workers", "1", "--output-dir", str(tmp_path)]
            cfg = _config_from(_build_parser().parse_args(argv))
            assert run(capsys, *argv)[0] == 0, argv[0]
            report = strict_json((tmp_path / cfg.command / "report.json").read_text())
            args = (cfg.replications, cfg.master_seed)
            want = json.loads(json.dumps(experiment_rows[cfg.command](cfg, args)))
            got = report.get("per_n", report.get("per_integrand", [report]))
            assert set(report) - {"per_n", "per_integrand"} <= verdict_keys | set(want[0])
            assert len(got) == len(want), cfg.command
            for row, expected in zip(got, want):
                kept = {k: v for k, v in row.items() if k in expected or k not in verdict_keys}
                assert kept == expected, cfg.command

    def test_check_exit_matches_report_verdict(self, capsys, tmp_path):
        # under --check a command exits 0 exactly when its report's verdict, as
        # the benchmark reads it, holds; read_verdict returns None for a report
        # that lacks its verdict keys, and no report here may
        runner = load_benchmark_runner()
        runs = (("kappa",), ("kappa",), *MONTE_CARLO_RUNS,
                ("taylor",), ("audit", "--n-list", "64,128"))
        assert {argv[0] for argv in runs} == set(runner.VERDICTS)
        codes = []
        for i, argv in enumerate(runs):
            out = tmp_path / str(i)
            with pytest.MonkeyPatch.context() as patch:
                if i == 1:  # the second kappa run is judged against a wrong reference
                    patch.setattr(checks, "KAPPA_SQ_REF", 0.0)
                code, _, err = run(capsys, *argv, "--check", "--workers", "1",
                                   "--output-dir", str(out))
            report = strict_json((out / argv[0] / "report.json").read_text())
            verdict = runner.read_verdict(argv[0], report)
            assert verdict is True or verdict is False, argv
            assert code == (0 if verdict else 4), argv
            assert ("check failed" in err) == (code == 4), argv
            codes.append(code)
        assert {0, 4} <= set(codes)

    @pytest.mark.parametrize("command, forced, expected", [
        # identities gate at every grid, the variance and correlation at the largest only
        # the correlation's line carries its record, as report.json holds it
        ("variations", {"IDENTITY_TOL": -1.0, "CUBIC_VAR_RTOL": 0.0, "MEAN_SE_MULT": 0.0},
         ["n=32 identities_ok", "n=64 identities_ok", "n=64 variance_ok",
          "n=64 corr_ok fisher_z {corr_ok}"]),
        # the means gate at every grid, the variance at the largest only
        ("hermite", {"MEAN_SE_MULT": 0.0, "HERMITE_VAR_RTOL": 0.0},
         ["sin n=32 left_mean_ok", "sin n=32 right_mean_ok", "sin n=64 left_mean_ok",
          "sin n=64 right_mean_ok", "sin n=64 variance_ok"]),
    ], ids=["variations", "hermite"])
    def test_check_scope(self, capsys, monkeypatch, tmp_path, command, forced, expected):
        for name, value in forced.items():
            monkeypatch.setattr(checks, name, value)
        code, _, err = run(capsys, command, "--n-list", "32,64", "--replications", "30",
                           "--check", "--workers", "1", "--output-dir", str(tmp_path))
        assert code == 4
        report = json.loads((tmp_path / command / "report.json").read_text())
        rows = report["per_n" if command == "variations" else "per_integrand"]
        described = {}
        if command == "variations":
            described["corr_ok"] = checks._describe(rows[-1]["corr_ok"]["fisher_z"])
        assert err.splitlines() == [
            f"check failed: {command} {line.format(**described)}" for line in expected
        ]
        # the report still holds every verdict of every grid, each failed
        verdicts = [row[name] for row in rows for name in checks.judge(command, row)[0]]
        assert all(
            not all(r["ok"] for r in v.values()) if isinstance(v, dict) else not v
            for v in verdicts
        )

    def test_converge_top_checks_gate_at_the_largest_grid(self, capsys, monkeypatch,
                                                            tmp_path):
        # a pivot variance gate below 0 fails the record of both grids, but the
        # TOP check gates, and stderr names it, at the largest grid only
        monkeypatch.setattr(checks, "PIVOT_VAR_TOL", -1.0)
        code, _, err = run(capsys, "converge", "--n-list", "64,128", "--replications", "60",
                           "--integrand", "sin", "--check", "--workers", "1",
                           "--output-dir", str(tmp_path))
        assert code == 4
        rows = json.loads((tmp_path / "converge" / "report.json").read_text())["per_n"]
        assert [row["pivot_variance"]["sin"]["ok"] for row in rows] == [False, False]
        assert [line.split(" (")[0] for line in err.splitlines()] == [
            "check failed: converge n=128 pivot_variance sin"
        ]

    def test_no_partial_files_on_success(self, capsys, tmp_path):
        run(capsys, "taylor", "--output-dir", str(tmp_path), "--master-seed", "3")
        names = os.listdir(tmp_path / "taylor")
        assert not any(name.startswith(".tmp-") for name in names)

    def test_taylor_check(self, capsys, tmp_path):
        code, *_ = run(capsys, "taylor", "--check", "--output-dir", str(tmp_path))
        assert code == 0

    def test_taylor_report_does_not_depend_on_the_seed(self, capsys, tmp_path):
        # the corpus is a fixed low-discrepancy point set, so taylor draws nothing
        reports = []
        for seed in ("2", "11"):
            out = tmp_path / seed
            code, *_ = run(capsys, "taylor", "--master-seed", seed, "--output-dir", str(out))
            assert code == 0
            reports.append((out / "taylor" / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_taylor_r6_failure_names_its_record(self, capsys, monkeypatch, tmp_path):
        # residuals 2e-9 off zero fail the polynomial corpus, and stderr gives
        # the check's value, target, tolerance and margin
        monkeypatch.setattr(experiments, "taylor_residual",
                            lambda *args: analysis.taylor_residual(*args) + 2e-9)
        code, _, err = run(capsys, "taylor", "--check", "--output-dir", str(tmp_path))
        assert code == 4
        assert json.loads((tmp_path / "taylor" / "report.json").read_text())["ok"] is False
        assert err.splitlines() == [
            "check failed: taylor max_poly_r6 poly "
            "(value 2e-09, target 0, tol 1e-09, margin -1e-09)"
        ]

    @pytest.mark.parametrize("command, names", [
        ("kappa", {"kappa_sq_close", "kappa_close"}),
        ("taylor", {"max_poly_r6", "gamma_exact"}),
        ("audit", {"anchored_sums_decreasing", "anchored_sums_small", "orthogonality_max_dev"}),
    ])
    def test_exact_reports_hold_their_checks(self, capsys, tmp_path, command, names):
        # an exact command's report holds every verdict of the check table
        # under checks, measured ones as records, and the overall ok
        code, *_ = run(capsys, command, "--n-list", "64,128", "--check",
                       "--output-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / command / "report.json").read_text())
        assert report["ok"] is True
        assert set(report["checks"]) == names
        assert report.keys().isdisjoint({"gamma_exact", "anchored_sums_decreasing"})
        for verdict in report["checks"].values():
            records = verdict.values() if isinstance(verdict, dict) else ()
            assert all(set(record) == {"value", "target", "tol", "margin", "ok"}
                       for record in records)

    def test_taylor_failure_writes_its_record(self, capsys, monkeypatch, tmp_path):
        # with no tolerance, R6's round-off fails the polynomial corpus, and
        # report.json holds the same record that stderr names
        monkeypatch.setattr(checks, "TAYLOR_R6_TOL", 0.0)
        code, _, err = run(capsys, "taylor", "--check", "--output-dir", str(tmp_path))
        assert code == 4
        report = json.loads((tmp_path / "taylor" / "report.json").read_text())
        record = report["checks"]["max_poly_r6"]["poly"]
        assert record == {"value": report["max_poly_r6"], "target": 0.0, "tol": 0.0,
                          "margin": -report["max_poly_r6"], "ok": False}
        assert report["ok"] is False and report["checks"]["gamma_exact"] is True
        assert err.splitlines() == [
            f"check failed: taylor max_poly_r6 poly {checks._describe(record)}"
        ]

    def test_audit_small(self, capsys, tmp_path):
        # the anchored sums are judged against their analytic bounds on every
        # grid, so the check holds on small grids as well
        code, _, err = run(capsys, "audit", "--n-list", "64,128", "--check",
                           "--output-dir", str(tmp_path))
        assert (code, err) == (0, "")
        report = json.loads((tmp_path / "audit" / "report.json").read_text())
        assert report["checks"]["anchored_sums_decreasing"] is True

    def test_audit_orthogonality_failure_names_its_record(self, capsys, monkeypatch, tmp_path):
        # pair moments 2e-8 off Mehler's value fail the audit, and stderr gives
        # the check's value, target, tolerance and margin
        monkeypatch.setattr(analysis, "poly_pair_moment",
                            lambda *args: quadrature.poly_pair_moment(*args) + 2e-8)
        code, _, err = run(capsys, "audit", "--n-list", "64,128", "--check",
                           "--output-dir", str(tmp_path))
        assert code == 4
        assert json.loads((tmp_path / "audit" / "report.json").read_text())["ok"] is False
        assert (
            "check failed: audit orthogonality_max_dev mehler "
            "(value 2e-08, target 0, tol 1e-08, margin -1e-08)"
        ) in err.splitlines()

    def test_variations_small(self, capsys, tmp_path):
        code, *_ = run(
            capsys, "variations", "--n-list", "64", "--replications", "40",
            "--master-seed", "9", "--output-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "variations" / "report.json").read_text())
        assert report["per_n"][0]["identities_ok"] is True


class TestMoreCommands:
    def test_hermite_small_run(self, capsys, tmp_path):
        code, *_ = run(
            capsys, "hermite", "--n-list", "128", "--replications", "150",
            "--integrand", "sin", "--master-seed", "21",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "hermite" / "report.json").read_text())
        entry = report["per_integrand"][0]
        assert entry["integrand"] == "sin"
        assert entry["bounded"] is True
        assert entry["mean_limit"] == pytest.approx(0.0863, abs=1e-3)

    def test_hermite_warns_on_unbounded(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "hermite", "--n-list", "64", "--replications", "120",
            "--integrand", "x", "--master-seed", "22",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert "unbounded" in err

    def test_scaling_report(self, capsys, tmp_path):
        code, *_ = run(
            capsys, "scaling", "--replications", "200", "--master-seed", "23",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "scaling" / "report.json").read_text())
        names = {row["estimator"] for row in report["per_estimator"]}
        assert names == {"cubic_4th", "quintic_2nd", "weighted_cubic_2nd"}
        for row in report["per_estimator"]:
            assert len(row["points"]) == len(row["spec"]["gaps"])


class TestReadme:
    """The README's examples still parse: each command line of its command
    block gives a valid configuration."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def block(self, fence: str) -> str:
        """The first fenced block of the given language in the Command line section."""
        text = self.README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        return re.search(f"```{fence}\n(.*?)```", text, re.S).group(1)

    def test_command_lines_parse(self):
        lines = [line for line in self.block("sh").splitlines()
                 if line.startswith("fbmlab ")]
        assert len(lines) == 8
        commands = set()
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            cfg = _config_from(_build_parser().parse_args(argv))
            commands.add(cfg.command)
        assert commands == {"kappa", "converge", "variations", "sextic", "hermite",
                            "scaling", "taylor", "audit"}


class TestImports:
    def test_exact_commands_do_not_load_scipy(self, fresh_python, tmp_path):
        # no fbmlab module imports scipy, with the CLI or on a draw
        out = fresh_python(
            "import sys\n"
            "from fbmlab import cli\n"
            "print('scipy.special' in sys.modules)\n"
            f"code = cli.main(['kappa', '--check', '--output-dir', {str(tmp_path)!r}])\n"
            "print(code, 'scipy.special' in sys.modules)\n"
        )
        lines = out.splitlines()  # kappa prints its JSON in between
        assert (lines[0], lines[-1]) == ("False", "0 False")

    def test_no_command_loads_multiprocessing(self, fresh_python, tmp_path):
        # no command loads multiprocessing or socket; workers are forked by
        # fbmlab.fanout, which only a command that forks loads
        out = fresh_python(
            "import sys\n"
            "from fbmlab import cli, experiments\n"
            "experiments.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def loaded():\n"
            "    return [m for m in ('multiprocessing', 'socket', 'fbmlab.fanout')\n"
            "            if m in sys.modules]\n"
            "bare = loaded()\n"
            "for argv in (['kappa'], ['taylor'], ['audit', '--n-list', '64,128']):\n"
            f"    assert cli.main([*argv, '--check', '--output-dir', {str(tmp_path)!r}]) == 0\n"
            "exact = loaded()\n"
            "cli.main(['sextic', '--n-list', '64', '--replications', '30', '--workers', '2',\n"
            f"          '--output-dir', {str(tmp_path)!r}])\n"
            "print(bare, exact, loaded())\n"
        )
        assert out.splitlines()[-1] == "[] [] ['fbmlab.fanout']"

    def test_exact_commands_load_no_libcrypto_random_or_polynomial(self, fresh_python,
                                                                    tmp_path):
        # kappa, taylor and audit hash with CPython's own SHA-256, draw nothing
        # and evaluate polynomials by Horner; their digests are hashlib's.  A
        # None in sys.modules is a module the CLI blocked, not one it loaded.
        out = fresh_python(
            "import json, os, sys\n"
            "from fbmlab import cli\n"
            "for argv in (['kappa'], ['taylor'], ['audit', '--n-list', '64,128']):\n"
            f"    assert cli.main([*argv, '--check', '--output-dir', {str(tmp_path)!r}]) == 0\n"
            "print([m for m in ('_hashlib', 'numpy.random', 'numpy.polynomial')\n"
            "       if sys.modules.get(m) is not None])\n"
            "if sys.platform.startswith('linux'):\n"
            "    with open('/proc/self/maps') as handle:\n"
            "        assert 'libcrypto' not in handle.read()\n"
            "import hashlib\n"
            "for command in ('kappa', 'taylor', 'audit'):\n"
            f"    base = os.path.join({str(tmp_path)!r}, command)\n"
            "    with open(os.path.join(base, 'manifest.json')) as handle:\n"
            "        files = json.load(handle)['files']\n"
            "    for name, digest in files.items():\n"
            "        with open(os.path.join(base, name), 'rb') as handle:\n"
            "            assert hashlib.sha256(handle.read()).hexdigest() == digest, name\n"
            "    print(command, sorted(files))\n"
        )
        assert out.splitlines()[-4:] == [
            "[]",
            "kappa ['report.json']",
            "taylor ['report.json']",
            "audit ['report.json']",
        ]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_monte_carlo_processes_map_no_libcrypto(self, fresh_python, tmp_path):
        # numpy.random loads in both forked workers of a --workers 2 command,
        # and in the parent of a --workers 1 one, and none of them maps
        # OpenSSL's libcrypto
        out = fresh_python(
            "import os, sys\n"
            "from fbmlab import cli, experiments, fanout\n"
            "experiments.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def seen():\n"
            "    with open('/proc/self/maps') as handle:\n"
            "        maps = handle.read()\n"
            "    return os.getpid(), 'numpy.random' in sys.modules, 'libcrypto' in maps\n"
            "real, workers = fanout.fork_map, set()\n"
            "def spy(worker, jobs):\n"
            "    replies = real(lambda job: (worker(job), seen()), jobs)\n"
            "    workers.update(state for _, state in replies)\n"
            "    return [result for result, _ in replies]\n"
            "fanout.fork_map = spy\n"
            "argv = ['sextic', '--n-list', '64', '--replications', '30',\n"
            f"        '--output-dir', {str(tmp_path)!r}]\n"
            "assert cli.main([*argv, '--workers', '2']) == 0\n"
            "print(len({pid for pid, _, _ in workers} - {os.getpid()}),\n"
            "      sorted({state[1:] for state in workers}), seen()[1:])\n"
            "assert cli.main([*argv, '--workers', '1']) == 0\n"
            "print(seen()[1:])\n"
        )
        assert out.splitlines()[-2:] == ["2 [(True, False)] (False, False)", "(True, False)"]

    def test_commands_run_without_scipy(self, fresh_python, tmp_path):
        # any scipy import raises; a drawing command that forks a pool and an
        # exact command both still exit 0 (no --check on sextic: its
        # statistical checks are not the point at this size)
        out = fresh_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from fbmlab import cli\n"
            "drawn = cli.main(['sextic', '--n-list', '64,128', '--replications', '60',\n"
            f"                 '--workers', '2', '--output-dir', {str(tmp_path)!r}])\n"
            f"exact = cli.main(['kappa', '--check', '--output-dir', {str(tmp_path)!r}])\n"
            "print(drawn, exact)\n"
        )
        assert out.splitlines()[-1] == "0 0"

    def test_converge_draws_no_limit_law(self, fresh_python, tmp_path):
        # converge judges its own paths: it imports neither the limit-law
        # sampler nor scipy, and its normal CDF comes from math.erfc
        out = fresh_python(
            "import sys\n"
            "from fbmlab import cli\n"
            "code = cli.main(['converge', '--n-list', '64', '--replications', '60',\n"
            "                 '--integrand', 'x; sin', '--workers', '2',\n"
            f"                 '--output-dir', {str(tmp_path)!r}])\n"
            "print(code, 'fbmlab.oracle' in sys.modules, 'scipy' in sys.modules)\n"
        )
        assert out.splitlines()[-1] == "0 False False"

    def test_benchmark_harness_finds_its_names(self, fresh_python):
        # perfbench/tracer.py names fbmlab classes and methods when it loads,
        # and perfbench/probe.py samples on Grid(n, horizon); both read-only
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        tracer, probe = str(bench / "tracer.py"), str(bench / "probe.py")
        out = fresh_python(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('tracer', {tracer!r})\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "print(all(hasattr(*where) for where in tracer.METHODS.values()))\n"
        )
        assert out == "True\n"
        out = fresh_python(
            f"import runpy, sys\nsys.argv = [{probe!r}, '2', 'fbm:64:1', 'fbm:64:0.25', 'bm:64:1']\n"
            f"runpy.run_path({probe!r}, run_name='__main__')\n"
        )
        assert strict_json(out)["first_path_s"] >= 0
