import hashlib
import json
import os

import pytest

from fbmlab.cli import main
from fbmlab.sampler import RNG_STREAM_VERSION


# small runs of every Monte Carlo command
MONTE_CARLO_RUNS = (
    ("converge", "--n-list", "32", "--replications", "60", "--integrand", "1; x; x^2; sin",
     "--refinement-factor", "2"),
    ("variations", "--n-list", "64", "--replications", "40"),
    ("sextic", "--n-list", "32,64", "--replications", "30"),
    ("hermite", "--n-list", "64", "--replications", "60"),
    ("scaling", "--replications", "200"),
)

# each command's overall verdict, from the keys of its report.json
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

    def test_zero_truncation(self, capsys, tmp_path):
        code, out, _ = run(capsys, "kappa", "--truncation", "0",
                           "--output-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["kappa_sq"] == 6.0

    def test_tail_bound_decreases(self, capsys, tmp_path):
        bounds = []
        for radius in ("10", "100", "1000"):
            _, out, _ = run(capsys, "kappa", "--truncation", radius,
                            "--output-dir", str(tmp_path))
            bounds.append(json.loads(out)["tail_bound"])
        assert bounds[0] > bounds[1] > bounds[2]

    def test_check_passes(self, capsys, tmp_path):
        code, _, err = run(capsys, "kappa", "--check", "--output-dir", str(tmp_path))
        assert code == 0
        assert "check failed" not in err

    def test_check_fails_with_tiny_truncation(self, capsys, tmp_path):
        code, _, err = run(capsys, "kappa", "--check", "--truncation", "0",
                           "--output-dir", str(tmp_path))
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

    def test_non_integral_grid(self, capsys, tmp_path):
        code, *_ = run(capsys, "sextic", "--n-list", "10", "--horizon", "0.35",
                       "--output-dir", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("kappa", "--horizon", "nan"),
        ("kappa", "--horizon", "inf"),
        ("sextic", "--n-list", "32", "--replications", "1"),
    ])
    def test_degenerate_values_are_config_errors(self, capsys, tmp_path, argv):
        # a nan or infinite horizon has no grid, and one replication has no
        # sample variance; both are refused before anything is written
        code, _, err = run(capsys, *argv, "--check", "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "out").exists()

    def test_bad_method(self, capsys, tmp_path):
        # the sampling method is not a setting: every command samples CIRCULANT
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\nmethod = circulant\n")
        code, _, err = run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path))
        assert code == 2
        assert "method" in err

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
            "master_seed = 123\n"
            "output_dir = {}\n".format(tmp_path / "out")
        )
        code, *_ = run(capsys, "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "out" / "taylor" / "report.json").exists()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\ntruncation = 0\n")
        code, out, _ = run(capsys, "kappa", "--config", str(cfg),
                           "--truncation", "50", "--output-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["truncation_radius"] == 50

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
        cfg.write_text("[kapa]\ntruncation = 5\n")
        code, _, err = run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path))
        assert code == 2
        assert "kapa" in err

    def test_check_value_spellings(self, capsys, tmp_path):
        # truncation 0 fails the kappa checks, so the exit code shows the flag
        cfg = tmp_path / "run.cfg"
        for word, code in (("1", 4), ("True", 4), ("YES", 4), ("0", 0), ("false", 0), ("No", 0)):
            cfg.write_text(f"[kappa]\ntruncation = 0\ncheck = {word}\n")
            assert run(capsys, "--config", str(cfg), "--output-dir", str(tmp_path))[0] == code

    def test_misspelt_check_value_is_a_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kappa]\ntruncation = 0\ncheck = ture\n")
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
            "--integrand", "1; x", "--refinement-factor", "2",
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

    def test_check_exit_matches_report_verdict(self, capsys, tmp_path):
        # under --check a command exits 0 exactly when its report's verdict holds
        runs = (("kappa",), ("kappa", "--truncation", "0"), *MONTE_CARLO_RUNS,
                ("taylor",), ("audit", "--n-list", "64,128"))
        assert {argv[0] for argv in runs} == set(VERDICTS)
        codes = []
        for i, argv in enumerate(runs):
            out = tmp_path / str(i)
            code, _, err = run(capsys, *argv, "--check", "--workers", "1",
                               "--output-dir", str(out))
            report = strict_json((out / argv[0] / "report.json").read_text())
            verdict = VERDICTS[argv[0]](report)
            assert verdict is True or verdict is False, argv
            assert code == (0 if verdict else 4), argv
            assert ("check failed" in err) == (code == 4), argv
            codes.append(code)
        assert {0, 4} <= set(codes)

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
