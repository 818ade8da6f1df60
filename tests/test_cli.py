"""Tests for the command-line interface."""

import concurrent.futures
import contextlib
import functools
import hashlib
import io
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.cli import build_parser, main
from modelprint.schemes import mistake_match_scheme
from modelprint.samplers import AdversarialSampler, ChainSampler, NegativeSampler, UniformSampler
from modelprint.schemes import SchemeSpec
from conftest import nan_copy

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


INF = float("inf")


def json_with_1e400(rec) -> str:
    """``rec`` as JSON with each infinity written as 1e400, a finite-looking literal."""
    return json.dumps(rec).replace("Infinity", "1e400")


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

    def test_seed_flag_overrides_the_config_seed(self, workspace, tmp_path):
        out = tmp_path / "seeded"
        rc = main(["generate", "--config", str(workspace / "config.json"), "--out", str(out),
                   "--seed", "5"])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 5
        config = mp.BenchmarkConfig.from_record(MICRO_CONFIG)
        assert config.seed != 5

        def weights(bench):
            return [(m.identity, [(W.tobytes(), b.tobytes()) for W, b in m.weights])
                    for v in bench.victims
                    for m in (v.model, *(m for m, _ in bench.stolen[v.model.identity]
                                         + bench.unrelated[v.model.identity]))]

        want = weights(mp.build_benchmark(replace(config, seed=5)))
        assert weights(mp.load_benchmark(out)) == want

    def test_invalid_config_fails_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "task": oops\n}')
        rc = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.json:2:" in err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"n_victims": 0}, "n_victims must be >= 1, got 0"),
            ({"n_unrelated": 0}, "n_unrelated must be >= 1, got 0"),
            ({"stolen": [{"method": "prune", "params": {}}]},
             "prune tag needs a numeric 'fraction', got None"),
            ({"stolen": [{"method": "prune", "params": {"fraction": "0.2"}}]},
             "prune tag needs a numeric 'fraction', got '0.2'"),
            ({"stolen": [{"method": "quantize", "params": {}}]},
             "quantize tag needs an integer 'bits', got None"),
            ({"stolen": [{"method": "quantize", "params": {"bits": 6.5}}]},
             "quantize tag needs an integer 'bits', got 6.5"),
            ({"stolen": [{"method": "prune", "params": {"fraction": -0.1}}]},
             "prune tag needs 'fraction' in [0, 1), got -0.1"),
            ({"stolen": [{"method": "prune", "params": {"fraction": 1.0}}]},
             "prune tag needs 'fraction' in [0, 1), got 1.0"),
            ({"stolen": [{"method": "quantize", "params": {"bits": 1}}]},
             "quantize tag needs 'bits' >= 2, got 1"),
            ({"n_victims": 2.9}, "n_victims must be integral, got 2.9"),
            ({"seed": 1.5}, "seed must be integral, got 1.5"),
            ({"n_victims": INF}, "n_victims must be integral, got inf"),
            ({"arch": MICRO_CONFIG["arch"] | {"layer_widths": [4, INF, 3]}},
             "arch.layer_widths must be integral, got [4, inf, 3]"),
            ({"task": MICRO_CONFIG["task"] | {"n_train": 2.5}},
             "task.n_train must be integral, got 2.5"),
            ({"train": MICRO_CONFIG["train"] | {"epochs": 2.5}},
             "train.epochs must be integral, got 2.5"),
            ({"train": MICRO_CONFIG["train"] | {"batch_size": 2.5}},
             "train.batch_size must be integral, got 2.5"),
            ({"n_victim": 2}, "n_victim is not a field of BenchmarkConfig"),
            ({"train": MICRO_CONFIG["train"] | {"learning_rate": "0.05"}},
             "train.learning_rate must be a number, got '0.05'"),
            ({"task": MICRO_CONFIG["task"] | {"dims": 3}},
             "task.dims is not a field of SyntheticTaskSpec"),
            ({"stolen": [{"method": "same", "param": {}}]},
             "stolen.param is not a field of TaskTag"),
            ({"train": MICRO_CONFIG["train"] | {"weight_decay": True}},
             "train.weight_decay must be a number, got True"),
            ({"arch": [4, 12, 3]}, "arch must be a JSON object, got [4, 12, 3]"),
            # sizes whose allocation would fail at once if they were not refused
            ({"task": MICRO_CONFIG["task"] | {"dim": 10**12}},
             "dim x (n_train + n_test) = 250000000000000 values, more than 67108864"),
            ({"arch": MICRO_CONFIG["arch"] | {"layer_widths": [4, 10**12, 3]}},
             "hold 8000000000003 parameters, more than 67108864"),
            # tag params that used to fail, or build the wrong models, after training victims
            ({"stolen": [{"method": "finetune", "params": {"epochs": 2.5}}]},
             "finetune tag epochs must be integral, got 2.5"),
            ({"stolen": [{"method": "finetune", "params": {"epochs": 0}}]},
             "invalid benchmark config: finetune tag: epochs must be >= 1"),
            ({"train": MICRO_CONFIG["train"] | {"epochs": 0}},
             "invalid benchmark config: train: epochs must be >= 1"),
            # infinite floats, which used to pass and fail only in SGD with training-diverged
            ({"train": MICRO_CONFIG["train"] | {"learning_rate": INF}},
             "train.learning_rate must be finite, got inf"),
            ({"train": MICRO_CONFIG["train"] | {"weight_decay": INF}},
             "train.weight_decay must be finite, got inf"),
            ({"task": MICRO_CONFIG["task"] | {"noise_scale": INF}},
             "task.noise_scale must be finite, got inf"),
            ({"stolen": [{"method": "finetune", "params": {"learning_rate": "x"}}]},
             "finetune tag learning_rate must be a number, got 'x'"),
            ({"stolen": [{"method": "label_extraction", "params": {"pool_size": "abc"}}]},
             "label_extraction tag needs an integer 'pool_size', got 'abc'"),
            ({"stolen": [{"method": "label_extraction", "params": {"pool_size": -5}}]},
             "label_extraction tag needs 'pool_size' >= 1, got -5"),
            ({"stolen": [{"method": "finetune", "params": {"epoch": 50}}]},
             "finetune tag takes no 'epoch' param"),
            ({"stolen": [{"method": "same", "params": {"index": "a"}}]},
             "same tag needs an integer 'index', got 'a'"),
            ({"stolen": [{"method": "adversarial_label_extraction",
                          "params": {"n_adversarial": -3}}]},
             "adversarial_label_extraction tag needs 'n_adversarial' >= 1, got -3"),
            ({"stolen": [{"method": "unrelated", "params": {}}]},
             "no stolen model is built by method 'unrelated'"),
            ({"stolen": [{"method": "same", "params": p} for p in ({}, {"index": 0})]},
             "repeated stolen model name '#same0'"),
            ({"stolen": [{"method": "prune", "params": {"fraction": f}}
                         for f in (0.25, 0.2500001)]},
             "repeated stolen model name '#prune0.25'"),
            ({"stolen": [{"method": "quantize", "params": {"bits": 6}}] * 2},
             "repeated stolen model name '#q6'"),
        ],
        ids=["no-victims", "no-unrelated", "prune-no-fraction", "prune-text-fraction",
             "quantize-no-bits", "quantize-float-bits", "prune-negative-fraction",
             "prune-whole-fraction", "quantize-one-bit", "fractional-victims",
             "fractional-seed", "overflowing-victims", "overflowing-width",
             "fractional-n-train", "fractional-epochs", "fractional-batch-size",
             "unknown-key", "text-learning-rate", "unknown-task-key", "unknown-tag-key",
             "boolean-weight-decay", "list-arch", "task-too-large", "model-too-large",
             "fractional-tag-epochs", "zero-tag-epochs", "zero-epochs",
             "infinite-learning-rate", "infinite-weight-decay", "infinite-noise-scale",
             "text-tag-learning-rate",
             "text-pool-size", "negative-pool-size", "unread-tag-key", "text-same-index",
             "negative-n-adversarial", "unrelated-stolen-tag", "repeated-same",
             "prune-fractions-with-one-name", "repeated-quantize"],
    )
    def test_config_that_cannot_build_is_corrupt_manifest(
        self, override, message, tmp_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(json_with_1e400(MICRO_CONFIG | override))
        rc = main(["generate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [corrupt-manifest]") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()


class TestEvaluate:
    def test_report_files_and_rows(self, workspace, tmp_path, capsys):
        out = tmp_path / "reports"
        rc = main([
            "evaluate", "--benchmark", str(workspace / "bench"),
            "--scheme", str(workspace / "baseline.json"),
            "--runs", "5", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        csvs = list(out.glob("*.csv"))
        jsons = sorted(out.glob("*.json"))
        stem = csvs[0].stem
        assert len(csvs) == 1
        assert [p.name for p in jsons] == [f"{stem}.json", f"{stem}.pair_statistics.json"]
        lines = csvs[0].read_text().strip().splitlines()
        report = json.loads(jsons[0].read_text())
        n_tasks = len(report["per_task"])
        assert lines[0] == "task,budget,run,seed,tpr_at_cap"
        assert len(lines) == 1 + (n_tasks + 2) * 5  # tasks + 2 aggregates, 5 runs
        for task, entry in report["per_task"].items():
            assert entry["std"] is not None
        assert report["version"] == mp.__version__
        assert report["scheme"]["sampler"]["kind"] == "negative"
        assert set(report["run_config"]) == {"seed", "cli"}
        assert "skipped 0 of 5 cells\n" in capsys.readouterr().out  # 5 runs x 1 victim

    def test_budget_override_flag(self, workspace, tmp_path):
        out = tmp_path / "reports2"
        rc = main([
            "evaluate", "--benchmark", str(workspace / "bench"),
            "--scheme", str(workspace / "baseline.json"),
            "--budget", "10", "--runs", "2", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(next(out.glob("*@10.json")).read_text())
        assert report["budget"] == 10

    def test_report_file_named_after_effective_budget(self, workspace, tmp_path):
        scheme = tmp_path / "baseline10.json"
        scheme.write_text(json.dumps(mistake_match_scheme(budget=10).to_record()))
        out = tmp_path / "reports3"
        rc = main([
            "evaluate", "--benchmark", str(workspace / "bench"), "--scheme", str(scheme),
            "--budget", "20", "--runs", "1", "--out", str(out),
        ])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "evaluate_negative-raw_labels-majority@20.csv",
            "evaluate_negative-raw_labels-majority@20.json",
            "evaluate_negative-raw_labels-majority@20.pair_statistics.json",
        ]
        assert json.loads((out / "evaluate_negative-raw_labels-majority@20.json").read_text())[
            "budget"
        ] == 20

    def test_another_schemes_report_is_not_overwritten(self, workspace, tmp_path, capsys):
        """A label leaves out the sampler's params, so these two would share one report file."""
        out = tmp_path / "reports"

        def run(steps):
            path = tmp_path / f"adv{steps}.json"
            spec = SchemeSpec(sampler=AdversarialSampler(steps=steps),
                              representation="raw_probits", budget=8)
            path.write_text(json.dumps(spec.to_record()))
            return main(["evaluate", "--benchmark", str(workspace / "bench"),
                         "--scheme", str(path), "--runs", "1", "--out", str(out)])

        report = out / "evaluate_adversarial-raw_probits-quantile@8.json"
        assert run(2) == 0
        assert run(40) == 2
        assert f"{report} holds no report of this scheme" in capsys.readouterr().err
        assert json.loads(report.read_text())["scheme"]["sampler"]["steps"] == 2
        assert run(2) == 0

    @pytest.mark.parametrize("prior", [b"{not json", b'{"budget": 20}\n'],
                             ids=["not-json", "no-scheme"])
    def test_unreadable_prior_report_is_not_overwritten(self, workspace, tmp_path, capsys, prior):
        out = tmp_path / "reports"
        out.mkdir()
        report = out / "evaluate_negative-raw_labels-majority@20.json"
        report.write_bytes(prior)
        rc = main(["evaluate", "--benchmark", str(workspace / "bench"),
                   "--scheme", str(workspace / "baseline.json"), "--runs", "1", "--out", str(out)])
        assert rc == 2
        assert f"{report} holds no report of this scheme" in capsys.readouterr().err
        assert report.read_bytes() == prior

    def test_pair_statistics_sidecar_fields(self, workspace, tmp_path):
        out = tmp_path / "reports"
        rc = main(["evaluate", "--benchmark", str(workspace / "bench"),
                   "--scheme", str(workspace / "baseline.json"), "--runs", "1", "--out", str(out)])
        assert rc == 0
        record = json.loads(next(out.glob("*.pair_statistics.json")).read_text())
        assert set(record) == {"split", "rows", "groups", "overlap", "n_undefined", "skipped"}
        assert record["split"] == "test" and record["skipped"] == []
        assert len(record["rows"]) == 3  # 1 victim x (1 stolen + 2 unrelated)
        for row in record["rows"]:
            assert set(row) == {"victim", "suspect", "task", "positive",
                                "alpha", "alpha_prime", "delta", "delta_c", "n_eval"}

    def test_nan_victim_left_out_of_the_sidecar(self, workspace, mini_benchmark, tmp_path):
        first, *rest = mini_benchmark.victims
        vid = first.model.identity
        broken = replace(first, model=nan_copy(first.model, vid))
        bench = tmp_path / "bench"
        mp.save_benchmark(replace(mini_benchmark, victims=(broken, *rest)), bench)
        out = tmp_path / "reports"
        rc = main(["evaluate", "--benchmark", str(bench),
                   "--scheme", str(workspace / "uniform.json"), "--runs", "1", "--out", str(out)])
        assert rc == 0
        record = json.loads(next(out.glob("*.pair_statistics.json")).read_text())
        assert record == mp.pair_distance_report(mp.load_benchmark(bench), "test").to_record()
        assert record["rows"] and vid not in {row["victim"] for row in record["rows"]}
        assert [s["victim"] for s in record["skipped"]] == [vid]

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


def scheme_with(path, **fields):
    path.write_text(json_with_1e400(mistake_match_scheme().to_record() | fields))
    return str(path)


def non_utf8(path):
    path.write_bytes(b"\x80\x81")
    return str(path)


def manifest_with(tmp, **fields):
    """A benchmark directory under ``tmp`` whose manifest holds only ``fields``."""
    bench = tmp / "bench"
    bench.mkdir()
    (bench / "manifest.json").write_text(json.dumps({"version": 1, **fields}))
    return bench


def evaluate_scheme(**fields):
    """Argv that evaluates the baseline scheme with ``fields`` replaced, on the workspace bench."""
    return lambda ws, tmp: ["evaluate", "--benchmark", str(ws / "bench"),
                            "--scheme", scheme_with(tmp / "s.json", **fields)]


ADVERSARIAL = {"kind": "adversarial"}

UNUSABLE_INPUTS = {
    "fractional-scheme-budget": (
        evaluate_scheme(budget=20.7), "[modelprint-error]", "budget must be integral, got 20.7",
    ),
    "overflowing-scheme-budget": (
        evaluate_scheme(budget=INF), "[modelprint-error]", "budget must be integral, got inf",
    ),
    "fractional-sampler-steps": (
        evaluate_scheme(sampler=ADVERSARIAL | {"steps": 2.5}),
        "[modelprint-error]", "sampler.steps must be integral, got 2.5",
    ),
    "overflowing-sampler-steps": (
        evaluate_scheme(sampler=ADVERSARIAL | {"steps": INF}),
        "[modelprint-error]", "sampler.steps must be integral, got inf",
    ),
    "fractional-k-variants": (
        evaluate_scheme(sampler={"kind": "subsample", "k_variants": 1.5}),
        "[modelprint-error]", "sampler.k_variants must be integral, got 1.5",
    ),
    "text-step-size": (
        evaluate_scheme(sampler=ADVERSARIAL | {"step_size": "x"}),
        "[modelprint-error]", "sampler.step_size must be a number, got 'x'",
    ),
    "bad-chain-stage": (
        evaluate_scheme(sampler={"kind": "chain", "first": {"kind": "negative"},
                                 "second": ADVERSARIAL | {"steps": 2.5}}),
        "[modelprint-error]", "sampler.second.steps must be integral, got 2.5",
    ),
    "negative-sampler-steps": (
        evaluate_scheme(sampler=ADVERSARIAL | {"steps": -3}),
        "[modelprint-error]", "steps must be >= 0, got -3",
    ),
    "negative-eps": (
        evaluate_scheme(sampler=ADVERSARIAL | {"eps": [0.1, -0.5]}),
        "[modelprint-error]", "eps must be finite and >= 0",
    ),
    "overflowing-step-size": (
        evaluate_scheme(sampler=ADVERSARIAL | {"step_size": INF}),
        "[modelprint-error]", "sampler.step_size must be finite, got inf",
    ),
    "unknown-sampler-key": (
        evaluate_scheme(sampler={"kind": "negative", "budget": 10}),
        "[modelprint-error]", "sampler.budget is not a field of NegativeSampler",
    ),
    "non-utf8-config": (
        lambda ws, tmp: ["generate", "--config", non_utf8(tmp / "c.json")],
        "[modelprint-error]", "not UTF-8 text",
    ),
    "non-utf8-scheme": (
        lambda ws, tmp: ["evaluate", "--benchmark", str(ws / "bench"),
                         "--scheme", non_utf8(tmp / "s.json")],
        "[modelprint-error]", "not UTF-8 text",
    ),
    "non-utf8-manifest": (
        lambda ws, tmp: ["evaluate", "--benchmark", str(Path(non_utf8(tmp / "manifest.json")).parent),
                         "--scheme", str(ws / "baseline.json")],
        "[corrupt-manifest]", "not UTF-8 text",
    ),
    "scheme-is-a-directory": (
        lambda ws, tmp: ["evaluate", "--benchmark", str(ws / "bench"), "--scheme", str(tmp)],
        "[modelprint-error]", "Is a directory",
    ),
    "config-is-a-directory": (
        lambda ws, tmp: ["generate", "--config", str(tmp)],
        "[modelprint-error]", "Is a directory",
    ),
    "benchmark-is-a-file": (
        lambda ws, tmp: ["evaluate", "--benchmark", str(ws / "config.json"),
                         "--scheme", str(ws / "baseline.json")],
        "[corrupt-manifest]", "manifest.json: Not a directory",
    ),
    "manifest-without-victims": (
        lambda ws, tmp: ["evaluate", "--benchmark", str(manifest_with(tmp, victims=[])),
                         "--scheme", str(ws / "baseline.json")],
        "[corrupt-manifest]", "a benchmark needs at least one victim",
    ),
}


@pytest.mark.parametrize("case", UNUSABLE_INPUTS)
def test_unusable_input_file_is_an_error(case, workspace, tmp_path, capsys):
    argv, code, message = UNUSABLE_INPUTS[case]
    rc = main([*argv(workspace, tmp_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}") and message in err
    assert not (tmp_path / "x").exists()


class TestSweep:
    def test_grid_rows_per_scheme_budget_run(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--benchmark", str(workspace / "bench"),
            "--scheme", str(workspace / "baseline.json"), str(workspace / "uniform.json"),
            "--budgets", "8,16", "--runs", "2", "--seed", "0", "--out", str(out),
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
        # one line per scheme, over 2 budgets x 2 runs x 1 victim
        assert capsys.readouterr().out.count("over budgets [8, 16]: skipped 0 of 4 cells\n") == 2
        # no field needs quoting, so each line is its row's str values joined by commas
        bench = mp.load_benchmark(workspace / "bench")
        expected = [lines[0]]
        for name in ("baseline.json", "uniform.json"):
            spec = SchemeSpec.from_record(json.loads((workspace / name).read_text()))
            sweep = mp.budget_sweep(spec, bench, [8, 16], n_runs=2, seed=0)
            expected += [",".join(map(str, (spec.label(), *row)))
                         for r in sweep.reports.values() for row in r.csv_rows()]
        assert (out / "sweep.csv").read_bytes() == "".join(f"{e}\n" for e in expected).encode()

    def test_schemes_sharing_a_label_are_refused(self, workspace, tmp_path, capsys):
        """A label leaves out the sampler's params, so these two would write rows with one key."""
        paths = []
        for steps in (2, 40):
            spec = SchemeSpec(sampler=AdversarialSampler(steps=steps),
                              representation="raw_probits", budget=8)
            paths.append(tmp_path / f"adv{steps}.json")
            paths[-1].write_text(json.dumps(spec.to_record()))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--benchmark", str(workspace / "bench"),
                   "--scheme", *map(str, paths), "--budgets", "8", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{paths[0]} and {paths[1]} share the scheme label" in err
        assert not out.exists()

    def test_chain_budget_its_second_stage_cannot_seed_is_skipped(self, workspace, tmp_path,
                                                                   capsys):
        """At budget 1 the chain's adversarial stage gets no seed point: those cells skip."""
        scheme = tmp_path / "chain.json"
        spec = SchemeSpec(sampler=ChainSampler(NegativeSampler(), AdversarialSampler(steps=2)),
                          representation="raw_probits", budget=8)
        scheme.write_text(json.dumps(spec.to_record()))
        rc = main(["sweep", "--benchmark", str(workspace / "bench"), "--scheme", str(scheme),
                   "--budgets", "1,8", "--runs", "2", "--out", str(tmp_path / "sweep")])
        assert rc == 0
        assert "over budgets [1, 8]: skipped 2 of 4 cells\n" in capsys.readouterr().out

    def test_empty_scheme_list_is_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "sweep", "--benchmark", str(workspace / "bench"),
                "--scheme", "--budgets", "8", "--out", str(tmp_path / "x"),
            ])
        assert err.value.code == 2


class TestAllSkipped:
    """A command whose every run x victim cell is skipped writes its files, then exits 2."""

    @pytest.fixture
    def infeasible(self, workspace):
        path = workspace / "infeasible.json"
        path.write_text(json.dumps(mistake_match_scheme(budget=10_000).to_record()))
        return path

    def test_evaluate(self, workspace, infeasible, tmp_path, capsys):
        out = tmp_path / "reports"
        rc = main(["evaluate", "--benchmark", str(workspace / "bench"),
                   "--scheme", str(infeasible), "--runs", "2", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: [empty-evaluation-set] all 2 run x victim cells "
                                "were skipped; the report holds no score\n")
        assert "skipped 2 of 2 cells" in captured.out
        assert [p.name.split("@10000")[1] for p in sorted(out.iterdir())] == [
            ".csv", ".json", ".pair_statistics.json"]

    def test_sweep(self, workspace, infeasible, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--benchmark", str(workspace / "bench"), "--scheme", str(infeasible),
                   "--budgets", "5000,10000", "--runs", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: [empty-evaluation-set] all 4 run x victim cells were skipped")
        assert len((out / "sweep.csv").read_text().splitlines()) > 1

    def test_one_scored_scheme_is_enough(self, workspace, infeasible, tmp_path):
        rc = main(["sweep", "--benchmark", str(workspace / "bench"),
                   "--scheme", str(infeasible), str(workspace / "baseline.json"),
                   "--budgets", "8", "--runs", "2", "--out", str(tmp_path / "sweep")])
        assert rc == 0


def test_generate_exits_cleanly_and_stops_its_workers(tmp_path):
    """``modelprint generate`` in its own interpreter: exit 0, empty stderr, no worker left.

    The build's pool must be shut down and released by an exit hook: an
    executor left for interpreter teardown can print "Exception ignored in
    ... weakref_cb".  Exit hooks run last-registered first, so the script's
    hook, registered before ``modelprint`` is imported, runs after the pool's.
    """
    config = tmp_path / "config.json"
    config.write_text(json.dumps(MICRO_CONFIG | {
        "n_victims": 2, "stolen": [{"method": "finetune", "params": {"epochs": 2}}],
    }))
    script = ("import atexit, multiprocessing, sys\n"
              "atexit.register(lambda: print(sys.modules['modelprint.harness']._POOL))\n"
              "from modelprint.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              "print(*(p.pid for p in multiprocessing.active_children()))\n"
              "sys.exit(rc)\n")
    src = str(Path(mp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, "generate", "--config", str(config),
         "--out", str(tmp_path / "bench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    *_, pids, pool_at_exit = proc.stdout.splitlines()
    assert pool_at_exit == "None"
    workers = [int(pid) for pid in pids.split()]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert len(workers) == (min(cpus, 6) if cpus > 1 else 0)  # one per phase-1 recipe at most
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_commands_score_in_their_own_process(workspace, tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the CLI started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    common = ["--benchmark", str(workspace / "bench"),
              "--scheme", str(workspace / "baseline.json"), "--runs", "2"]
    assert main(["evaluate", *common, "--out", str(tmp_path / "reports")]) == 0
    assert main(["sweep", *common, "--budgets", "8,16", "--out", str(tmp_path / "sweep")]) == 0
    with pytest.raises(SystemExit) as err:
        main(["evaluate", *common, "--workers", "2", "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    assert not (tmp_path / "x").exists()


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


# -- fuzzing the scheme files that ``evaluate`` scores ---------------------

JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 64), st.floats(allow_nan=True), st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
# per field: values a scheme may hold, near misses, and huge or zero budgets
SAMPLER_PARAMS = {
    "steps": st.integers(-2, 6),  # each step is a gradient pass; stay small
    "eps": st.floats(-1.0, 2.0) | st.lists(st.floats(-1.0, 2.0), max_size=5),
    "step_size": st.none() | st.floats(-1.0, 1.0),
    "k_variants": st.integers(-1, 5),
    "vicinity_scale": st.floats(-0.5, 1.5),
}
SCHEME_VALUES = {
    "representation": st.sampled_from(["raw_labels", "raw_probits", "pairwise", "listwise"]),
    "inner_distance": st.sampled_from(["cosine", "labels"]),
    "detector": st.fixed_dictionaries(
        {}, optional={"kind": st.sampled_from(["quantile", "majority"]) | JSON_VALUES,
                      "target_fpr": st.floats(-1.0, 2.0) | st.just(float("nan"))}),
    "budget": st.sampled_from([0, -1, 1, 2, 6, 10, 20, 21, 40, 2**31, 2**63, 10**30])
              | st.floats(allow_nan=True),
    "seed_split": st.sampled_from(["test", "train"]),
}


def mutated(valid):
    """Mostly ``valid``, sometimes any JSON value."""
    return st.one_of(valid, valid, JSON_VALUES)


KIND_PARAMS = {
    "uniform": (), "negative": (), "adversarial": ("steps", "eps", "step_size"),
    "subsample": ("k_variants", "vicinity_scale"), "chain": ("first", "second"),
}


@st.composite
def sampler_records(draw, depth=0):
    """A sampler record: each parameter of its kind kept, a near miss or any value."""
    kind = draw(st.sampled_from(sorted(KIND_PARAMS)))
    rec = {"kind": kind}
    for name in KIND_PARAMS[kind]:
        if kind == "chain":
            rec[name] = draw(sampler_records(depth + 1)) if depth < 1 else draw(JSON_VALUES)
        elif draw(st.booleans()):
            rec[name] = draw(mutated(SAMPLER_PARAMS[name]))
    if draw(st.integers(0, 9)) == 0:
        rec[draw(st.sampled_from([*SAMPLER_PARAMS, "junk"]))] = draw(JSON_VALUES)
    if draw(st.integers(0, 9)) == 0:
        rec["kind"] = draw(JSON_VALUES)  # lists and objects included: unhashable kinds
    return rec


@st.composite
def scheme_records(draw):
    """A scheme record: each field kept, replaced by a near miss or any value, or dropped."""
    rec = mistake_match_scheme(budget=20).to_record()
    rec["sampler"] = draw(sampler_records())
    for name, valid in SCHEME_VALUES.items():
        action = draw(st.sampled_from(["keep", "keep", "set", "drop"]))
        if action == "set":
            rec[name] = draw(mutated(valid))
        elif action == "drop":
            rec.pop(name)
    if draw(st.integers(0, 9)) == 0:
        rec[draw(st.text(max_size=5))] = draw(JSON_VALUES)
    return draw(JSON_VALUES) if draw(st.integers(0, 19)) == 0 else rec


@settings(max_examples=100, deadline=None)
@given(rec=scheme_records())
def test_fuzzed_scheme_files_exit_cleanly(workspace, rec):
    """Any scheme file makes ``evaluate`` exit 0, or 2 with a coded error; never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        scheme = Path(tmp) / "scheme.json"
        scheme.write_text(json.dumps(rec))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["evaluate", "--benchmark", str(workspace / "bench"), "--scheme",
                       str(scheme), "--runs", "1", "--out", str(Path(tmp) / "out")])
    last = err.getvalue().splitlines()[-1:]
    assert rc == 0 or (rc == 2 and re.match(r"error: \[[a-z-]+\] ", last[0])), err.getvalue()


def test_unknown_key_with_a_control_character_stays_on_one_line(workspace, tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(mistake_match_scheme().to_record() | {"de\rtector": None}))
    rc = main(["evaluate", "--benchmark", str(workspace / "bench"), "--scheme", str(scheme),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        "invalid scheme spec: 'de\\rtector' is not a field of SchemeSpec\n")


# -- fuzzing the benchmark configs that ``generate`` builds -----------------

# every stolen method with values for the tag params its build reads; epoch counts
# stay small, so that every config that builds is a micro build
TAG_PARAMS = {
    "same": {"index": 1},
    "prune": {"fraction": 0.3},
    "quantize": {"bits": 6},
    "finetune": {"epochs": 2, "learning_rate": 0.01, "index": 1},
    "transfer": {"epochs": 2, "learning_rate": 0.02},
    "probit_extraction": {"pool_size": 40},
    "label_extraction": {"pool_size": 40},
    "adversarial_label_extraction": {"pool_size": 40, "n_adversarial": 5},
    "unrelated": {},
}
BAD_VALUES = st.sampled_from([None, "x", True, [], {}, INF, 0, -1])


@st.composite
def config_records(draw):
    """``MICRO_CONFIG`` with one stolen tag, then up to two fields, tag params or new keys set
    to a wrong type, ``None``, 1e400, 0 or -1."""
    rec = json.loads(json.dumps(MICRO_CONFIG))
    method = draw(st.sampled_from(sorted(TAG_PARAMS)))
    params = {k: v for k, v in TAG_PARAMS[method].items() if draw(st.booleans())}
    rec["stolen"] = [{"method": method, "params": params}]
    objects = [rec, rec["task"], rec["arch"], rec["train"], rec["stolen"][0], params]
    for _ in range(draw(st.integers(0, 2))):
        obj = objects[draw(st.integers(0, len(objects) - 1))]
        obj[draw(st.sampled_from([*sorted(obj), "junk"]))] = draw(BAD_VALUES)
    return rec


@settings(max_examples=60, deadline=None)
@given(rec=config_records())
def test_fuzzed_configs_exit_cleanly(rec):
    """Any such config makes ``generate`` exit 0, or 2 with a coded error; never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json_with_1e400(rec))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["generate", "--config", str(config), "--out", str(Path(tmp) / "out")])
    last = err.getvalue().splitlines()[-1:]
    assert rc == 0 or (rc == 2 and re.match(r"error: \[[a-z-]+\] ", last[0])), err.getvalue()


# -- fuzzing the benchmark manifests that ``evaluate`` and ``sweep`` load -----

MANIFEST_VALUES = [None, "x", True, [], {}, -1, 0, INF, "../x.mpw"]


def json_paths(node, path=()):
    """The key path of every value below ``node``."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield (*path, key)
        yield from json_paths(child, (*path, key))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_manifests_exit_cleanly(workspace, data):
    """The micro manifest with one field set, deleted, or given another model's id makes
    ``evaluate`` and ``sweep`` exit 0, or 2 with a coded error; never a traceback."""
    manifest = json.loads((workspace / "bench" / "manifest.json").read_text())
    paths = sorted(json_paths(manifest), key=len)  # shallow first: whole lists and records
    id_paths = [p for p in paths if p[-1] == "id"]
    action = data.draw(st.sampled_from(["set", "delete", "repeat-id"]))
    if action == "repeat-id":
        *parents, key = data.draw(st.sampled_from(id_paths))
        value = data.draw(st.sampled_from([functools.reduce(operator.getitem, p, manifest)
                                           for p in id_paths]))
    else:
        *parents, key = data.draw(st.sampled_from(paths))
        value = data.draw(st.sampled_from(MANIFEST_VALUES))
    node = functools.reduce(operator.getitem, parents, manifest)
    if action == "delete":
        del node[key]
    else:
        node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        bench = shutil.copytree(workspace / "bench", Path(tmp) / "bench")
        (bench / "manifest.json").write_text(json_with_1e400(manifest))
        for argv in (["evaluate", "--runs", "1"], ["sweep", "--budgets", "8", "--runs", "1"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([*argv, "--benchmark", str(bench), "--scheme",
                           str(workspace / "baseline.json"), "--out", str(Path(tmp) / argv[0])])
            last = err.getvalue().splitlines()[-1:]
            assert rc == 0 or (rc == 2 and re.match(r"error: \[[a-z-]+\] ", last[0])), \
                err.getvalue()
