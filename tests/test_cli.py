import csv
import hashlib
import importlib.util
import json
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from fbmlab import checks
from fbmlab.cli import _build_parser, _config_from, _json_bytes, _parse_config_file, main
from fbmlab.errors import DomainError
from fbmlab.experiments import (
    converge_experiment,
    hermite_experiment,
    identity_experiment,
    parse_integrand_list,
    sextic_experiment,
)
from fbmlab.sampler import RNG_STREAM_VERSION


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
    ])
    def test_degenerate_values_are_config_errors(self, capsys, tmp_path, argv):
        # a grid of no steps or a negative number of them, or no grid at all,
        # has no path, one replication has no sample variance, and an audit
        # of one step has no lag for its ratio (v); each is refused before
        # anything is written
        code, _, err = run(capsys, *argv, "--check", "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "out").exists()

    def test_bad_method(self, capsys, tmp_path):
        # the sampling method is not a setting: every command samples with sample_fbm
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\nmethod = circulant\n")
        code, _, err = run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path))
        assert code == 2
        assert "method" in err

    @pytest.mark.parametrize(
        "setting", ["refinement_factor = 4", "truncation = 0", "horizon = 0.35"]
    )
    def test_removed_settings_are_refused(self, capsys, tmp_path, setting):
        # the oracle refines 4-fold, kappa sums 10^4 lags and every run is on
        # [0, 1] (self-similarity turns [0, T] into it): none is a setting
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[kappa]\n{setting}\n")
        code, _, err = run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path / "out"))
        assert code == 2
        key, _, value = setting.partition(" = ")
        assert key in err
        flag = "--" + key.replace("_", "-")
        assert run(capsys, "kappa", flag, value, "--output-dir", str(tmp_path / "out"))[0] == 2
        assert not (tmp_path / "out").exists()

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
        # finite parameters whose values overflow on the sampled paths
        code, _, err = run(capsys, "hermite", "--n-list", "64", "--replications", "60",
                           "--check", "--integrand", "exp:1,1000", "--workers", "1",
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in err and "non-finite" in err
        assert not (tmp_path / "out").exists()  # no sample CSV either

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

    def test_missing_command(self, capsys):
        code, *_ = run(capsys)
        assert code == 2

    def test_capability_exit(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "audit", "--n-list", "8192", "--output-dir", str(tmp_path),
        )
        assert code == 3
        assert "capability" in err

    def test_config_file_with_section(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[taylor]\n"
            "command = taylor\n"
            "master_seed = 123\n"
            "output_dir = {}\n".format(tmp_path / "out")
        )
        code, *_ = run(capsys, "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "out" / "taylor" / "report.json").exists()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\nmaster_seed = 1\n")
        code, *_ = run(capsys, "kappa", "--config", str(cfg),
                       "--master-seed", "50", "--output-dir", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "kappa" / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 50

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\nthis is not a setting\n")
        code, *_ = run(capsys, "--config", str(cfg))
        assert code == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\nreplicatons = 50\n")
        code, _, err = run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path))
        assert code == 2
        assert "replicatons" in err
        assert not (tmp_path / "kappa").exists()

    def test_unknown_command_section(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kapa]\nmaster_seed = 5\n")
        code, _, err = run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path))
        assert code == 2
        assert "kapa" in err

    @pytest.mark.parametrize("text, command", [
        pytest.param(text, command, id=text) for text, command in (
            ("[kappa]\ncheck = yes\n[taylor]\n", ()),
            ("[taylor]\n[taylor]\n", ()),
            ("[kappa]\ncommand = taylor\n", ()),
            ("[taylor]\ncheck = yes\n", ("kappa",)),
        )
    ])
    def test_config_names_one_command(self, capsys, tmp_path, text, command):
        # the keys of two sections would merge into one run of the last, and
        # a command flag would run with the keys of another command's section
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, _, err = run(capsys, *command, "--config", str(cfg),
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "out").exists()

    def test_check_value_spellings(self, capsys, monkeypatch, tmp_path):
        # a wrong reference fails the kappa check, so the exit code shows the flag
        monkeypatch.setattr(checks, "KAPPA_REF", 0.0)
        cfg = tmp_path / "run.cfg"
        for word, code in (("1", 4), ("True", 4), ("YES", 4), ("0", 0), ("false", 0), ("No", 0)):
            cfg.write_text(f"[kappa]\ncheck = {word}\n")
            assert run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path))[0] == code

    def test_misspelt_check_value_is_a_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\ncheck = ture\n")
        code, _, err = run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path))
        assert code == 2
        assert "check" in err and "ture" in err
        assert not (tmp_path / "kappa").exists()

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
            "--integrand", "1; x",
            "--master-seed", "5", "--output-dir", str(tmp_path),
        )
        code, *_ = run(capsys, *args)
        assert code == 0
        base = tmp_path / "converge"
        report = json.loads((base / "report.json").read_text())
        assert report["per_n"][0]["n"] == 32
        assert "int:1" in report["per_n"][0]["ks"]
        row = report["per_n"][0]["ks"]["int:1"]
        assert row["margin"] == row["critical_001"] - row["statistic"]
        manifest = json.loads((base / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            data = (base / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        assert manifest["config"]["command"] == "converge"

    def test_csv_names_with_commas_are_quoted(self, capsys, tmp_path):
        code, *_ = run(capsys, "converge", "--n-list", "64", "--replications", "60",
                       "--integrand", "poly:1,2; sin", "--workers", "1",
                       "--output-dir", str(tmp_path))
        assert code == 0
        for name in ("estimator_n64.csv", "oracle_n64.csv"):
            with open(tmp_path / "converge" / name, newline="", encoding="utf-8") as handle:
                head, *rows = list(csv.reader(handle))
            assert head == ["replication", "t", "B", "cubic", "int_poly:1,2", "int_sin"]
            assert len(rows) == 60
            assert all(len(row) == len(head) for row in rows)

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
                converge_experiment(n, *args, parse_integrand_list(cfg.integrand))[0]
                for n in cfg.n_list
            ],
            "variations": lambda cfg, args: [identity_experiment(n, *args)[0] for n in cfg.n_list],
            "sextic": lambda cfg, args: [sextic_experiment(cfg.n_list, *args)],
            "hermite": lambda cfg, args: [
                row for g in parse_integrand_list(cfg.integrand)
                for row, _ in hermite_experiment(cfg.n_list, *args, g)
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
        ("variations", {"IDENTITY_TOL": -1.0, "CUBIC_VAR_RTOL": 0.0, "CUBIC_CORR_MAX": 0.0},
         ["n=32 identities_ok", "n=64 identities_ok", "n=64 variance_ok", "n=64 corr_ok"]),
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
        assert err.splitlines() == [f"check failed: {command} {line}" for line in expected]
        # the report still holds every verdict of every grid
        report = json.loads((tmp_path / command / "report.json").read_text())
        rows = report["per_n" if command == "variations" else "per_integrand"]
        assert all(not row[name] for row in rows for name in checks.judge(command, row)[0])

    def test_no_partial_files_on_success(self, capsys, tmp_path):
        run(capsys, "taylor", "--output-dir", str(tmp_path), "--master-seed", "3")
        names = os.listdir(tmp_path / "taylor")
        assert not any(name.startswith(".tmp-") for name in names)

    def test_taylor_check(self, capsys, tmp_path):
        code, *_ = run(capsys, "taylor", "--check", "--output-dir", str(tmp_path))
        assert code == 0

    def test_audit_small(self, capsys, tmp_path):
        code, *_ = run(capsys, "audit", "--n-list", "64,128",
                       "--output-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "audit" / "report.json").read_text())
        assert report["anchored_sums_decreasing"] is True

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
    block and its config file example give a valid configuration."""

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

    def test_config_example_parses(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.block("ini"), encoding="utf-8")
        assert _parse_config_file(str(path))["command"] == "converge"
        cfg = _config_from(_build_parser().parse_args(["--config", str(path)]))
        assert (cfg.command, cfg.n_list, cfg.replications) == ("converge", (1024, 4096), 2000)


class TestImports:
    def test_exact_commands_do_not_load_scipy(self, fresh_python, tmp_path):
        # scipy.special is imported on the first random draw, not with the CLI
        out = fresh_python(
            "import sys\n"
            "from fbmlab import cli\n"
            "print('scipy.special' in sys.modules)\n"
            f"code = cli.main(['kappa', '--check', '--output-dir', {str(tmp_path)!r}])\n"
            "print(code, 'scipy.special' in sys.modules)\n"
        )
        lines = out.splitlines()  # kappa prints its JSON in between
        assert (lines[0], lines[-1]) == ("False", "0 False")
