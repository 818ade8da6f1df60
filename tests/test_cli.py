"""Tests for the command-line interface."""

import hashlib
import json

import pytest

import modelprint as mp
from modelprint.cli import build_parser, main
from modelprint.schemes import mistake_match_scheme
from modelprint.samplers import UniformSampler
from modelprint.schemes import SchemeSpec


MICRO_CONFIG = {
    "task": {
        "family": "blobs", "num_classes": 3, "dim": 4, "n_train": 100,
        "n_test": 150, "label_noise": 0.1, "noise_scale": 1.3, "seed": 0,
        "concept_seed": 0,
    },
    "arch": {"layer_widths": [4, 12, 3], "activation": "relu", "seed": 0},
    "train": {
        "epochs": 12, "learning_rate": 0.05, "batch_size": 32,
        "weight_decay": 0.0, "loss": "cross-entropy",
    },
    "n_victims": 1,
    "stolen": [{"method": "same", "params": {}}],
    "n_unrelated": 2,
    "seed": 1,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(MICRO_CONFIG))
    scheme_path = root / "baseline.json"
    scheme_path.write_text(json.dumps(mistake_match_scheme(budget=20).to_record()))
    uniform_path = root / "uniform.json"
    uniform_path.write_text(
        json.dumps(
            SchemeSpec(
                sampler=UniformSampler(), representation="raw_labels",
                inner_distance="labels", budget=20,
            ).to_record()
        )
    )
    bench_dir = root / "bench"
    rc = main(["generate", "--config", str(config_path), "--out", str(bench_dir)])
    assert rc == 0
    return root


class TestGenerate:
    def test_minimal_benchmark_file_count(self, workspace):
        bench_dir = workspace / "bench"
        # 1 victim + 1 stolen + 2 unrelated = 4 model files, plus the manifest
        assert len(list(bench_dir.glob("*.mpw"))) == 4
        assert (bench_dir / "manifest.json").exists()

    def test_rerun_gives_identical_manifest_hash(self, workspace, tmp_path):
        config_path = workspace / "config.json"
        out = tmp_path / "again"
        assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
        h1 = hashlib.sha256((workspace / "bench" / "manifest.json").read_bytes())
        h2 = hashlib.sha256((out / "manifest.json").read_bytes())
        assert h1.hexdigest() == h2.hexdigest()

    def test_missing_output_dir_created(self, workspace, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        rc = main(["generate", "--config", str(workspace / "config.json"), "--out", str(out)])
        assert rc == 0 and (out / "manifest.json").exists()

    def test_invalid_config_fails_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "task": oops\n}')
        rc = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.json:2:" in err


class TestEvaluate:
    def test_report_files_and_rows(self, workspace, tmp_path):
        out = tmp_path / "reports"
        rc = main([
            "evaluate", "--benchmark", str(workspace / "bench"),
            "--scheme", str(workspace / "baseline.json"),
            "--runs", "5", "--seed", "0", "--workers", "1",
            "--out", str(out),
        ])
        assert rc == 0
        csvs = list(out.glob("*.csv"))
        jsons = list(out.glob("*.json"))
        assert len(csvs) == 1 and len(jsons) == 1
        lines = csvs[0].read_text().strip().splitlines()
        report = json.loads(jsons[0].read_text())
        n_tasks = len(report["per_task"])
        assert lines[0] == "task,budget,run,seed,tpr_at_cap"
        assert len(lines) == 1 + (n_tasks + 2) * 5  # tasks + 2 aggregates, 5 runs
        for task, entry in report["per_task"].items():
            assert entry["std"] is not None
        assert report["version"] == mp.__version__
        assert report["run_config"]["scheme"]["sampler"]["kind"] == "negative"

    def test_budget_override_flag(self, workspace, tmp_path):
        out = tmp_path / "reports2"
        rc = main([
            "evaluate", "--benchmark", str(workspace / "bench"),
            "--scheme", str(workspace / "baseline.json"),
            "--budget", "10", "--runs", "2", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(next(out.glob("*.json")).read_text())
        assert report["budget"] == 10

    def test_corrupt_manifest_exit_code(self, workspace, tmp_path, capsys):
        bad_dir = tmp_path / "corrupt"
        bad_dir.mkdir()
        (bad_dir / "manifest.json").write_text("{broken")
        rc = main([
            "evaluate", "--benchmark", str(bad_dir),
            "--scheme", str(workspace / "baseline.json"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "corrupt-manifest" in capsys.readouterr().err


class TestSweep:
    def test_grid_rows_per_scheme_budget_run(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--benchmark", str(workspace / "bench"),
            "--scheme", str(workspace / "baseline.json"), str(workspace / "uniform.json"),
            "--budgets", "8,16", "--runs", "2", "--seed", "0", "--workers", "1",
            "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "scheme,task,budget,run,seed,tpr_at_cap"
        body = [line.split(",") for line in lines[1:]]
        cells = {(row[0], row[2]) for row in body}
        assert len(cells) == 4  # 2 schemes x 2 budgets
        runs_per_cell = len(body) / len(cells)
        n_tasks = len({row[1] for row in body if not row[1].startswith("aggregate")})
        assert runs_per_cell == (n_tasks + 2) * 2

    def test_empty_scheme_list_is_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "sweep", "--benchmark", str(workspace / "bench"),
                "--scheme", "--budgets", "8", "--out", str(tmp_path / "x"),
            ])
        assert err.value.code == 2


class TestSeeds:
    @pytest.mark.parametrize("command", ["generate", "evaluate", "sweep"])
    def test_negative_seed_flag_is_usage_error(self, command, workspace, tmp_path, capsys):
        args = {
            "generate": ["--config", str(workspace / "config.json")],
            "evaluate": [
                "--benchmark", str(workspace / "bench"),
                "--scheme", str(workspace / "baseline.json"),
            ],
            "sweep": [
                "--benchmark", str(workspace / "bench"),
                "--scheme", str(workspace / "baseline.json"), "--budgets", "8",
            ],
        }[command]
        with pytest.raises(SystemExit) as err:
            main([command, *args, "--seed", "-1", "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_config_seed_is_corrupt_manifest(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(MICRO_CONFIG | {"seed": -3}))
        rc = main(["generate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "corrupt-manifest" in capsys.readouterr().err
        with pytest.raises(mp.errors.ManifestError):
            mp.BenchmarkConfig.from_record(MICRO_CONFIG | {"seed": -3})

    def test_seed_defaults_to_zero(self):
        parser = build_parser()
        for command in (["evaluate", "--benchmark", "b", "--scheme", "s"],
                        ["sweep", "--benchmark", "b", "--scheme", "s", "--budgets", "8"]):
            assert parser.parse_args([*command, "--out", "o"]).seed == 0


class TestNumericFlags:
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("sweep", ["--budgets", "10,x"], "invalid _budgets value: '10,x'"),
            ("sweep", ["--budgets", "50,10"], "--budgets: must be ascending, got 50,10"),
            ("sweep", ["--budgets", "0"], "--budgets: must be >= 1, got 0"),
            ("sweep", ["--budgets", ","], "--budgets: no budgets given"),
            ("sweep", ["--budgets", "8", "--runs", "0"], "--runs: must be >= 1, got 0"),
            ("evaluate", ["--budget", "0"], "--budget: must be >= 1, got 0"),
            ("evaluate", ["--runs", "0"], "--runs: must be >= 1, got 0"),
            ("evaluate", ["--runs", "-2"], "--runs: must be >= 1, got -2"),
            ("sweep", ["--budgets", "8,8"], "--budgets: must be ascending, got 8,8"),
        ],
    )
    def test_bad_value_is_usage_error(self, command, flags, message, workspace, tmp_path, capsys):
        args = ["--benchmark", str(workspace / "bench"), "--scheme", str(workspace / "baseline.json")]
        with pytest.raises(SystemExit) as err:
            main([command, *args, *flags, "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage:") and message in stderr
        assert not (tmp_path / "x").exists()

    def test_good_values_parse(self):
        args = build_parser().parse_args([
            "sweep", "--benchmark", "b", "--scheme", "s", "--budgets", "8, 16,32,",
            "--runs", "1", "--out", "o",
        ])
        assert args.budgets == [8, 16, 32] and args.runs == 1


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert mp.__version__ in capsys.readouterr().out
