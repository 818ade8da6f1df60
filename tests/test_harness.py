"""Tests for benchmark construction, metrics, evaluation, and reports."""

import concurrent.futures
import csv
import json
import os
import re
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint import fingerprints, harness
from modelprint.core import Classifier, pair_stats
from modelprint.errors import EmptyPairSet, EmptyTaskList, NonFiniteAnswer, TrainingDiverged
from modelprint.harness import (
    STREAM_POOL,
    STREAM_STOLEN,
    STREAM_TRANSFER,
    STREAM_UNRELATED_MODEL,
    STREAM_UNRELATED_TASK,
    STREAM_VICTIM_MODEL,
    STREAM_VICTIM_TASK,
    BenchmarkConfig,
    PairScore,
    RocCurve,
    budget_sweep,
    build_benchmark,
    default_benchmark_config,
    derive_seed,
    evaluate,
    load_benchmark,
    pair_distance_report,
    roc_curve,
    save_benchmark,
    tpr_at_fpr,
    tpr_fpr_at_threshold,
)
from modelprint.samplers import AdversarialSampler, Subsampler, UniformSampler
from modelprint.schemes import SchemeSpec, mistake_match_scheme
from modelprint.tinylearn import MLPSpec, SyntheticTaskSpec, TrainConfig, generate_task, train
from modelprint.variants import (
    COPY_NAMES, extract, finetune, quantize, same_copy, transfer, unrelated,
)

from conftest import nan_copy, reference_cosine_distance


def micro_config(**overrides):
    base = dict(
        task=SyntheticTaskSpec(
            family="blobs", num_classes=3, dim=4, n_train=100, n_test=150,
            label_noise=0.1, noise_scale=1.3,
        ),
        arch=MLPSpec(layer_widths=(4, 12, 3)),
        train=TrainConfig(epochs=15, learning_rate=0.05, batch_size=32),
        n_victims=2,
        stolen=(mp.TaskTag("same"), mp.TaskTag("prune", {"fraction": 0.2})),
        n_unrelated=2,
        seed=3,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestBuildBenchmark:
    def test_sizes_exactly_as_requested(self):
        tags = (
            mp.TaskTag("same"),
            mp.TaskTag("prune", {"fraction": 0.3}),
            mp.TaskTag("quantize", {"bits": 6}),
            mp.TaskTag("finetune", {"epochs": 3}),
            mp.TaskTag("label_extraction", {"pool_size": 60}),
        )
        bench = build_benchmark(micro_config(n_victims=3, stolen=tags, n_unrelated=5))
        assert len(bench.victims) == 3
        for victim in bench.victims:
            vid = victim.model.identity
            assert len(bench.stolen[vid]) == 5
            assert len(bench.unrelated[vid]) == 5
        assert set(bench.tasks) == {
            "same", "prune", "quantize", "finetune", "label_extraction"
        }

    def test_same_tag_outputs_identical_everywhere(self, mini_benchmark):
        for victim in mini_benchmark.victims:
            vid = victim.model.identity
            same_models = [
                m for m, tag in mini_benchmark.stolen[vid] if tag.method == "same"
            ]
            assert same_models
            probe = victim.test_data.points
            for model in same_models:
                np.testing.assert_array_equal(
                    model.predict(probe), victim.model.predict(probe)
                )

    def test_copies_are_named_as_the_config_check_names_them(self, mini_benchmark):
        """A same/prune/quantize copy is its victim's id plus ``COPY_NAMES`` of its config tag."""
        config = mini_benchmark.config
        for victim in mini_benchmark.victims:
            vid = victim.model.identity
            names = [(model.identity, vid + COPY_NAMES[tag.method](tag.params))
                     for (model, _), tag in zip(mini_benchmark.stolen[vid], config.stolen)
                     if tag.method in COPY_NAMES]
            assert len(names) == 3 and all(built == named for built, named in names), names

    def test_same_copies_keep_their_index(self):
        tags = (mp.TaskTag("same", {"index": 0}), mp.TaskTag("same", {"index": 1}))
        bench = build_benchmark(micro_config(n_victims=1, stolen=tags, n_unrelated=1))
        copies = [model for model, _ in bench.stolen["victim-0"]]
        assert [model.tag for model in copies] == list(tags)
        for model in copies:
            assert model.identity.endswith(COPY_NAMES["same"](model.tag.params))

    def test_empty_task_list_rejected(self):
        with pytest.raises(EmptyTaskList):
            build_benchmark(micro_config(stolen=()))

    def test_provenance_integrity_enforced(self, mini_benchmark):
        vid = mini_benchmark.victims[0].model.identity
        bad_stolen = dict(mini_benchmark.stolen)
        bad_stolen[vid] = ((mini_benchmark.unrelated[vid][0][0], mp.TaskTag("unrelated")),)
        with pytest.raises(ValueError):
            mp.BenchmarkTriplet(
                mini_benchmark.victims, bad_stolen, mini_benchmark.unrelated
            )

    def test_repeated_victim_id_rejected(self, mini_benchmark):
        victim = mini_benchmark.victims[0]
        with pytest.raises(ValueError, match="repeated victim id 'victim-0'"):
            mp.BenchmarkTriplet((victim, victim), mini_benchmark.stolen, mini_benchmark.unrelated)

    def test_repeated_suspect_id_rejected(self, mini_benchmark):
        """Pair statistics are keyed by victim and suspect id, so a repeat would merge two pairs."""
        vid = mini_benchmark.victims[0].model.identity
        unrelated = dict(mini_benchmark.unrelated)
        unrelated[vid] += unrelated[vid][:1]
        with pytest.raises(ValueError, match=f"repeated suspect id of {vid} '{vid}/unrelated-0'"):
            mp.BenchmarkTriplet(mini_benchmark.victims, mini_benchmark.stolen, unrelated)

    def test_transfer_and_adversarial_extraction_buildable(self):
        tags = (
            mp.TaskTag("transfer", {"epochs": 5}),
            mp.TaskTag("adversarial_label_extraction", {"pool_size": 60, "n_adversarial": 20}),
        )
        bench = build_benchmark(micro_config(n_victims=1, stolen=tags, n_unrelated=1))
        methods = [tag.method for _, tag in bench.stolen["victim-0"]]
        assert methods == ["transfer", "adversarial_label_extraction"]


def one_at_a_time(config: BenchmarkConfig, i: int) -> list:
    """Victim i, its stolen models and its unrelated models, each trained alone."""
    root = config.seed
    task = replace(config.task, seed=derive_seed(root, STREAM_VICTIM_TASK, i))
    train_data, _ = generate_task(task)
    arch = replace(config.arch, seed=derive_seed(root, STREAM_VICTIM_MODEL, i))
    victim = train(train_data, arch, config.train, identity=f"victim-{i}")
    models = [victim]
    for k, tag in enumerate(config.stolen):
        seed, params = derive_seed(root, STREAM_STOLEN, i, k), tag.params
        if tag.method == "same":
            models.append(same_copy(victim, params.get("index", 0)))
        elif tag.method == "finetune":
            cfg = TrainConfig(epochs=params["epochs"], learning_rate=0.01)
            models.append(finetune(victim, train_data, cfg, seed=seed))
        elif tag.method == "transfer":
            new_task = replace(
                config.task,
                seed=derive_seed(root, STREAM_TRANSFER, seed),
                concept_seed=derive_seed(root, STREAM_TRANSFER, seed, 1),
            )
            cfg = TrainConfig(epochs=params["epochs"], learning_rate=0.02)
            models.append(transfer(victim, generate_task(new_task)[0], cfg, seed=seed))
        else:
            rng = np.random.default_rng(derive_seed(seed, STREAM_POOL))
            pool = train_data.take(rng.choice(len(train_data), params["pool_size"], replace=False))
            mode = {"label_extraction": "labels", "probit_extraction": "probits",
                    "adversarial_label_extraction": "adversarial_labels"}[tag.method]
            models.append(extract(victim, pool, config.arch, config.train, mode=mode, seed=seed,
                                  n_adversarial=params.get("n_adversarial")))
    for j in range(config.n_unrelated):
        utask = replace(config.task, seed=derive_seed(root, STREAM_UNRELATED_TASK, i, j))
        models.append(unrelated(
            generate_task(utask)[0], config.arch, config.train,
            seed=derive_seed(root, STREAM_UNRELATED_MODEL, i, j),
            identity=f"victim-{i}/unrelated-{j}",
        ))
    return models


class TestStackedBuild:
    def test_models_byte_equal_to_one_at_a_time(self):
        tags = (
            mp.TaskTag("same"),
            mp.TaskTag("finetune", {"epochs": 3}),
            mp.TaskTag("transfer", {"epochs": 4}),
            mp.TaskTag("label_extraction", {"pool_size": 60}),
            mp.TaskTag("probit_extraction", {"pool_size": 80}),
            mp.TaskTag("adversarial_label_extraction", {"pool_size": 60, "n_adversarial": 20}),
        )
        config = micro_config(n_victims=3, stolen=tags, n_unrelated=3)
        bench = build_benchmark(config)
        for i, victim in enumerate(bench.victims):
            vid = victim.model.identity
            built = [victim.model] + [m for m, _ in bench.stolen[vid] + bench.unrelated[vid]]
            expected = one_at_a_time(config, i)
            assert [m.identity for m in built] == [m.identity for m in expected]
            for got, want in zip(built, expected):
                assert got.tag == want.tag
                assert got.spec == want.spec
                assert got.train_loss == want.train_loss
                for (W, b), (We, be) in zip(got.weights, want.weights):
                    assert W.tobytes() == We.tobytes() and b.tobytes() == be.tobytes()


def every_model(bench):
    for victim in bench.victims:
        vid = victim.model.identity
        yield victim.model
        yield from (model for model, _ in bench.stolen[vid] + bench.unrelated[vid])


def model_bytes(bench) -> list:
    return [
        (m.identity, m.tag, m.spec, m.train_loss,
         [(W.tobytes(), b.tobytes()) for W, b in m.weights])
        for m in every_model(bench)
    ]


def diverging(config: BenchmarkConfig) -> BenchmarkConfig:
    """``config`` at a learning rate whose SGD overflows."""
    return replace(config, train=replace(config.train, learning_rate=1e6))


class TestBuildPool:
    """The build's stacks train in forked workers; the models must not notice."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets how many CPUs this process may use, as ``build_benchmark`` sees it."""
        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return use

    @pytest.mark.parametrize("n", [2, 3])  # 3 cuts the 8 phase-1 recipes 2/3/3, across victims
    def test_pool_build_byte_equal_to_in_process_build(self, mini_benchmark, cpus, n):
        cpus(n)
        pooled = build_benchmark(mini_benchmark.config)
        assert harness._POOL is not None
        cpus(1)
        in_process = build_benchmark(mini_benchmark.config)
        assert model_bytes(pooled) == model_bytes(in_process)
        assert model_bytes(pooled) == model_bytes(mini_benchmark)

    def test_first_build_forks_one_pool(self, mini_benchmark, cpus, monkeypatch):
        """4 CPUs cut the 8 phase-1 recipes into 4 stacks; the 2 stolen stacks reuse that pool."""
        made, executor = [], concurrent.futures.ProcessPoolExecutor

        def counting(*args, **kwargs):
            made.append(args)
            return executor(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
        harness._shutdown_pool()
        cpus(4)
        try:
            build_benchmark(mini_benchmark.config)
        finally:
            harness._shutdown_pool()
        assert len(made) == 1

    def test_weight_space_copies_are_made_in_the_caller(self, mini_benchmark, cpus, monkeypatch):
        """A call made in a worker would not reach this process's record."""
        calls = []
        for name in ("same_copy", "prune", "quantize"):
            def record(*args, _copy=getattr(harness, name), **kwargs):
                calls.append(_copy.__name__)
                return _copy(*args, **kwargs)
            monkeypatch.setattr(harness, name, record)
        cpus(2)
        build_benchmark(mini_benchmark.config)
        assert sorted(calls) == sorted(["same_copy", "prune", "quantize"] * 2)

    def test_broken_pool_is_dropped_and_the_next_build_forks_a_fresh_one(self, mini_benchmark,
                                                                          cpus):
        cpus(2)
        with pytest.raises(BrokenProcessPool):
            harness._fit_stacks([[(os._exit, 1)], [(os._exit, 1)]])
        assert harness._POOL is None
        assert model_bytes(build_benchmark(mini_benchmark.config)) == model_bytes(mini_benchmark)
        assert harness._POOL is not None

    def test_every_model_is_read_only(self, mini_benchmark, cpus):
        cpus(2)
        bench = build_benchmark(mini_benchmark.config)
        models = list(every_model(bench))
        assert len(models) == 2 * (1 + 5 + 3)
        for model in models:
            for W, b in model.weights:
                assert not W.flags.writeable and not b.flags.writeable, model.identity

    def test_divergence_in_a_worker_names_its_model(self, mini_benchmark, cpus):
        cpus(2)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            build_benchmark(diverging(mini_benchmark.config))
        assert err.value.code == "training-diverged"
        assert str(err.value).endswith("during SGD of victim-0")

    def test_callers_errstate_holds_in_the_workers(self, mini_benchmark, cpus):
        cpus(2)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            build_benchmark(diverging(mini_benchmark.config))


# ``default_benchmark_config().to_record()`` as ``json.dumps(..., sort_keys=True)`` writes it
DESK_CONFIG_JSON = (
    '{"arch": {"activation": "relu", "layer_widths": [8, 48, 24, 4], "seed": 0}, '
    '"n_unrelated": 10, "n_victims": 5, "seed": 0, "stolen": [{"method": "same", '
    '"params": {"index": 0}}, {"method": "same", "params": {"index": 1}}, {"method": "same", '
    '"params": {"index": 2}}, {"method": "same", "params": {"index": 3}}, {"method": "same", '
    '"params": {"index": 4}}, {"method": "prune", "params": {"fraction": 0.05}}, '
    '{"method": "prune", "params": {"fraction": 0.15}}, {"method": "prune", '
    '"params": {"fraction": 0.25}}, {"method": "prune", "params": {"fraction": 0.35}}, '
    '{"method": "prune", "params": {"fraction": 0.45}}, {"method": "quantize", '
    '"params": {"bits": 6}}, {"method": "quantize", "params": {"bits": 7}}, '
    '{"method": "quantize", "params": {"bits": 8}}, {"method": "quantize", '
    '"params": {"bits": 9}}, {"method": "quantize", "params": {"bits": 10}}, '
    '{"method": "finetune", "params": {"epochs": 5, "index": 0}}, {"method": "finetune", '
    '"params": {"epochs": 5, "index": 1}}, {"method": "finetune", "params": {"epochs": 5, '
    '"index": 2}}, {"method": "finetune", "params": {"epochs": 5, "index": 3}}, '
    '{"method": "finetune", "params": {"epochs": 5, "index": 4}}, '
    '{"method": "probit_extraction", "params": {"pool_size": 60}}, '
    '{"method": "probit_extraction", "params": {"pool_size": 100}}, '
    '{"method": "probit_extraction", "params": {"pool_size": 160}}, '
    '{"method": "probit_extraction", "params": {"pool_size": 250}}, '
    '{"method": "probit_extraction", "params": {"pool_size": 400}}, '
    '{"method": "label_extraction", "params": {"pool_size": 60}}, '
    '{"method": "label_extraction", "params": {"pool_size": 100}}, '
    '{"method": "label_extraction", "params": {"pool_size": 160}}, '
    '{"method": "label_extraction", "params": {"pool_size": 250}}, '
    '{"method": "label_extraction", "params": {"pool_size": 400}}], '
    '"task": {"concept_seed": 0, "dim": 8, "family": "blobs", "label_noise": 0.1, '
    '"n_test": 1000, "n_train": 400, "noise_scale": 1.2, "num_classes": 4, "seed": 0}, '
    '"train": {"batch_size": 32, "epochs": 80, "learning_rate": 0.05, '
    '"loss": "cross-entropy", "weight_decay": 0.0}}'
)


class TestConfigRecord:
    def test_desk_config_bytes_are_pinned(self):
        config = default_benchmark_config()
        assert json.dumps(config.to_record(), sort_keys=True) == DESK_CONFIG_JSON
        assert BenchmarkConfig.from_record(json.loads(DESK_CONFIG_JSON)) == config

    def test_omitted_keys_take_the_defaults(self):
        assert BenchmarkConfig.from_record({}) == BenchmarkConfig()
        rec = {"arch": {"layer_widths": [8, 4, 4]}, "train": {"epochs": 3}}
        assert BenchmarkConfig.from_record(rec) == BenchmarkConfig(
            arch=MLPSpec((8, 4, 4)), train=TrainConfig(epochs=3)
        )


class TestManifest:
    def test_round_trip_bit_identical_scores(self, mini_benchmark, tmp_path):
        save_benchmark(mini_benchmark, tmp_path / "bench")
        reloaded = load_benchmark(tmp_path / "bench")
        spec = mistake_match_scheme(budget=30)
        a = evaluate(spec, mini_benchmark, n_runs=2, seed=0, compute_pair_stats=False)
        b = evaluate(spec, reloaded, n_runs=2, seed=0, compute_pair_stats=False)
        assert a.to_json() == b.to_json()

    def test_rewrite_is_byte_identical(self, mini_benchmark, tmp_path):
        p1 = save_benchmark(mini_benchmark, tmp_path / "a")
        p2 = save_benchmark(mini_benchmark, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_manifest_raises(self, tmp_path):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "manifest.json").write_text("{not json")
        with pytest.raises(mp.errors.ManifestError):
            load_benchmark(bench_dir)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(mp.errors.ManifestError):
            load_benchmark(tmp_path / "nope")

    @staticmethod
    def edited_copy(bench, bench_dir, edit):
        """Save ``bench`` to ``bench_dir``, then apply ``edit`` to its manifest record."""
        path = save_benchmark(bench, bench_dir)
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    def test_task_disagreeing_with_weights_raises(self, mini_benchmark, tmp_path):
        def widen(manifest):
            manifest["victims"][1]["task"]["dim"] = 5

        self.edited_copy(mini_benchmark, tmp_path / "bench", widen)
        with pytest.raises(mp.errors.ManifestError, match="victim-1 has 4 inputs and 3 classes"):
            load_benchmark(tmp_path / "bench")

    @pytest.mark.parametrize(
        "task, message",
        [({"n_train": 2.5}, "task.n_train must be integral, got 2.5"),
         ({"dims": 4}, "task.dims is not a field of SyntheticTaskSpec")],
        ids=["fractional-n-train", "unknown-key"],
    )
    def test_bad_victim_task_raises(self, mini_benchmark, tmp_path, task, message):
        def edit(manifest):
            manifest["victims"][0]["task"] |= task

        self.edited_copy(mini_benchmark, tmp_path / "bench", edit)
        with pytest.raises(mp.errors.ManifestError, match=re.escape(message)):
            load_benchmark(tmp_path / "bench")

    @pytest.mark.parametrize("case", ["parent", "absolute", "symlink", "directory", "symlink-loop"])
    def test_bad_weight_file_entry_raises(self, mini_benchmark, tmp_path, case):
        bench_dir = tmp_path / "bench"
        outside = tmp_path / "outside.mpw"  # a valid weight file in the wrong place
        entry, message = {
            "parent": ("../outside.mpw", "lies outside"),
            "absolute": (str(outside), "lies outside"),
            "symlink": ("link.mpw", "lies outside"),
            "directory": (".", "Is a directory"),
            "symlink-loop": ("loop.mpw", "loop"),
        }[case]

        def point_away(manifest):
            manifest["victims"][0]["stolen"][0]["file"] = entry

        self.edited_copy(mini_benchmark, bench_dir, point_away)
        outside.write_bytes((bench_dir / "victim-0_stolen-0.mpw").read_bytes())
        (bench_dir / "link.mpw").symlink_to(outside)
        (bench_dir / "loop.mpw").symlink_to("loop.mpw")
        with pytest.raises(mp.errors.ManifestError, match=message):
            load_benchmark(bench_dir)


def hand_scores(flag_map):
    """PairScores with score 1.0 for pairs to flag at threshold 0.5, else 0.0."""
    out = []
    for vid, (pos_flags, neg_flags) in flag_map.items():
        for i, flagged in enumerate(pos_flags):
            out.append(PairScore(0, vid, f"{vid}-p{i}", "task", True, 1.0 if flagged else 0.0))
        for i, flagged in enumerate(neg_flags):
            out.append(PairScore(0, vid, f"{vid}-n{i}", "unrelated", False, 1.0 if flagged else 0.0))
    return out


class TestPerVictimAveraging:
    def test_equal_pair_counts(self):
        scores = hand_scores({"A": ([1, 1], [0, 0]), "B": ([0, 0], [0, 0])})
        tpr, fpr = tpr_fpr_at_threshold(scores, 0.5)
        assert (tpr, fpr) == (0.5, 0.0)

    def test_unequal_pair_counts_differ_from_pooling(self):
        # victim A: 4/4 flagged; victim B: 0/1 flagged.  Per-victim
        # averaging gives 0.5; pooling would give 4/5 = 0.8.
        scores = hand_scores({"A": ([1, 1, 1, 1], [0]), "B": ([0], [0])})
        tpr, _ = tpr_fpr_at_threshold(scores, 0.5)
        assert tpr == 0.5
        pooled = np.mean([s.score >= 0.5 for s in scores if s.positive])
        assert pooled == 0.8
        assert tpr != pooled

    def test_flag_everything_and_nothing(self):
        scores = hand_scores({"A": ([1, 0], [1, 0]), "B": ([0, 1], [0, 1])})
        assert tpr_fpr_at_threshold(scores, -np.inf) == (1.0, 1.0)
        assert tpr_fpr_at_threshold(scores, np.inf) == (0.0, 0.0)

    def test_victim_without_pairs_rejected(self):
        scores = hand_scores({"A": ([1], [0])})
        with pytest.raises(EmptyPairSet):
            tpr_fpr_at_threshold(scores, 0.5, victims=["A", "B"])
        with pytest.raises(EmptyPairSet):
            tpr_fpr_at_threshold(
                [PairScore(0, "A", "p", "task", True, 1.0)], 0.5
            )


class TestRocCurve:
    def random_scores(self, rng, n_victims=2, n_pos=8, n_neg=6, ties=True):
        out = []
        for v in range(n_victims):
            for i in range(n_pos):
                x = rng.normal()
                out.append(PairScore(0, f"v{v}", f"p{i}", "t", True,
                                     round(x, 1) if ties else float(x)))
            for i in range(n_neg):
                x = rng.normal()
                out.append(PairScore(0, f"v{v}", f"n{i}", "u", False,
                                     round(x, 1) if ties else float(x)))
        return out

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(7)
        scores = self.random_scores(rng)
        curve = roc_curve(scores)
        observed = sorted({s.score for s in scores}, reverse=True)
        # exact agreement at every observed-score threshold
        for t, point in zip(observed, curve.points[1:]):
            tpr, fpr = tpr_fpr_at_threshold(scores, t)
            assert point == (fpr, tpr)
        # a dense uniform sweep only ever produces points already on the curve
        lo = min(observed) - 0.1
        hi = max(observed) + 0.1
        curve_set = set(curve.points)
        for t in np.linspace(lo, hi, 10_000):
            tpr, fpr = tpr_fpr_at_threshold(scores, float(t))
            assert (fpr, tpr) in curve_set

    def test_monotone_with_endpoints(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            curve = roc_curve(self.random_scores(rng, ties=trial % 2 == 0))
            xs = [p[0] for p in curve.points]
            ys = [p[1] for p in curve.points]
            assert xs[0] == 0.0
            assert curve.points[-1] == (1.0, 1.0)
            assert all(a <= b + 1e-12 for a, b in zip(xs, xs[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))

    def test_perfect_separation_curve(self):
        scores = hand_scores({"A": ([1, 1, 1], [0, 0, 0])})
        assert tpr_at_fpr(roc_curve(scores), 0.05) == 1.0
        assert roc_curve(scores).auc == 1.0

    def test_diagonal_curve_gives_chance_level(self):
        scores = []
        for i in range(20):
            scores.append(PairScore(0, "v", f"p{i}", "t", True, float(i)))
            scores.append(PairScore(0, "v", f"n{i}", "u", False, float(i)))
        assert tpr_at_fpr(roc_curve(scores), 0.05) == pytest.approx(0.05)

    def test_tpr_at_fpr_equals_threshold_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores = self.random_scores(rng, ties=True)
            curve = roc_curve(scores)
            best = 0.0
            for t in {s.score for s in scores}:
                tpr, fpr = tpr_fpr_at_threshold(scores, t)
                if fpr <= 0.05:
                    best = max(best, tpr)
            assert tpr_at_fpr(curve, 0.05) == best

    @pytest.mark.parametrize("fpr_cap", [float("nan"), -0.1, 1.5])
    def test_cap_outside_unit_interval_rejected(self, fpr_cap):
        curve = RocCurve(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)), 1.0)
        message = f"fpr_cap must lie in [0, 1], got {fpr_cap}"
        with pytest.raises(ValueError, match=re.escape(message)):
            tpr_at_fpr(curve, fpr_cap)


def reference_tpr_fpr_at_threshold(
    scores, threshold: float, victims=None
) -> tuple[float, float]:
    """The brute-force scan that the sorted-count ROC replaced, kept as its oracle."""
    scores = list(scores)
    if victims is None:
        victims = sorted({s.victim for s in scores})
    if not victims:
        raise EmptyPairSet("no victims to evaluate")
    tprs, fprs = [], []
    for vid in victims:
        pos = [s.score >= threshold for s in scores if s.victim == vid and s.positive]
        neg = [s.score >= threshold for s in scores if s.victim == vid and not s.positive]
        if not pos or not neg:
            raise EmptyPairSet(f"victim {vid} has no scored positive or negative pairs")
        tprs.append(np.mean(pos))
        fprs.append(np.mean(neg))
    return float(np.mean(tprs)), float(np.mean(fprs))


def reference_roc_curve(scores, victims=None) -> RocCurve:
    """The threshold-by-threshold sweep that the sorted-count ROC replaced."""
    scores = list(scores)
    if not scores:
        raise EmptyPairSet("cannot build a ROC from no scores")
    thresholds = sorted({s.score for s in scores}, reverse=True)
    points = [(0.0, 0.0)]
    for t in thresholds:
        tpr, fpr = reference_tpr_fpr_at_threshold(scores, t, victims)
        points.append((fpr, tpr))
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    auc = float(np.trapezoid(ys, xs)) if hasattr(np, "trapezoid") else float(np.trapz(ys, xs))
    return RocCurve(tuple(points), auc)


def reference_all_pair_stats(benchmark, split, skip_nonfinite_victims=False):
    """The per-pair loop that predicted the victim again for every suspect."""
    for victim in benchmark.victims:
        vid = victim.model.identity
        data = victim.data(split)
        for model, tag in benchmark.stolen[vid] + benchmark.unrelated[vid]:
            yield vid, model, tag, pair_stats(victim.model, model, data)


def reference_cosine_rows(U, V):
    return np.array([reference_cosine_distance(u, v) for u, v in zip(U, V)])


def outcome(fn, *args):
    """A call's result, or its error's type and message, so errors compare too."""
    try:
        return fn(*args)
    except EmptyPairSet as err:
        return type(err), str(err)


SCORE_VALUES = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0).map(lambda x: round(x, 1)),
    st.sampled_from([-np.inf, np.inf, 0.0, -0.0]),
)


@st.composite
def victim_scores(draw):
    """PairScores of 1-12 victims with uneven pair counts; some victims may lack a side."""
    tied = draw(st.booleans())
    values = st.floats(-3.0, 3.0).map(lambda x: round(x, 1)) if tied else SCORE_VALUES
    scores = []
    for v in range(draw(st.integers(1, 12))):
        for positive, side in ((True, "p"), (False, "n")):
            for i in range(draw(st.integers(0 if draw(st.booleans()) else 1, 9))):
                task = "t" if positive else "u"
                scores.append(PairScore(0, f"v{v}", f"{side}{i}", task, positive, draw(values)))
    return draw(st.permutations(scores))


class TestRocMatchesScanOracle:
    """The sorted-count ROC and TPR/FPR give the threshold scan's exact bits."""

    @settings(max_examples=300, deadline=None)
    @given(scores=victim_scores(), data=st.data())
    def test_curve_and_rates_equal(self, scores, data):
        ids = sorted({s.victim for s in scores}) + ["missing"]
        victims = data.draw(st.one_of(
            st.none(),
            st.lists(st.sampled_from(ids), max_size=14),
            st.permutations(ids[:-1]),
        ))
        assert outcome(roc_curve, scores, victims) == outcome(reference_roc_curve, scores, victims)
        thresholds = [-np.inf, np.inf, *{s.score for s in scores}, data.draw(SCORE_VALUES)]
        for t in thresholds:
            assert outcome(tpr_fpr_at_threshold, scores, t, victims) == outcome(
                reference_tpr_fpr_at_threshold, scores, t, victims
            )

    def test_empty_inputs_raise_the_same_messages(self):
        one = [PairScore(0, "A", "p", "task", True, 1.0)]
        cases = [
            (roc_curve, reference_roc_curve, ([],)),
            (roc_curve, reference_roc_curve, (one, [])),
            (roc_curve, reference_roc_curve, (one,)),
            (tpr_fpr_at_threshold, reference_tpr_fpr_at_threshold, ([], 0.5)),
            (tpr_fpr_at_threshold, reference_tpr_fpr_at_threshold, (one, 0.5, ["B"])),
        ]
        for fast, slow, args in cases:
            got = outcome(fast, *args)
            assert got[0] is EmptyPairSet and got == outcome(slow, *args)

    def test_many_victims_use_the_same_mean(self):
        # >= 8 victims takes numpy's unrolled pairwise sum; rates 1/3 do not add exactly
        rng = np.random.default_rng(5)
        for n_victims in (7, 8, 9, 12, 17):
            scores = [
                PairScore(0, f"v{v:02d}", f"s{i}", "t" if i < 3 else "u", i < 3,
                          float(rng.normal()))
                for v in range(n_victims) for i in range(3 + int(rng.integers(1, 8)))
            ]
            assert roc_curve(scores) == reference_roc_curve(scores)


def perfbench_families(budget=20):
    """The four scheme families of the benchmark, plus label-distance pairwise."""
    return [
        mistake_match_scheme(budget),
        SchemeSpec(sampler=AdversarialSampler(), representation="raw_probits", budget=budget),
        SchemeSpec(sampler=Subsampler(k_variants=1), representation="pairwise", budget=budget),
        SchemeSpec(sampler=Subsampler(k_variants=1), representation="pairwise",
                   inner_distance="labels", budget=budget),
        SchemeSpec(sampler=UniformSampler(), representation="listwise", budget=budget),
    ]


def test_reports_byte_identical_to_oracles(mini_benchmark, monkeypatch):
    fast = [evaluate(spec, mini_benchmark, n_runs=2, seed=0).to_json()
            for spec in perfbench_families()]
    monkeypatch.setattr(harness, "roc_curve", reference_roc_curve)
    monkeypatch.setattr(harness, "_all_pair_stats", reference_all_pair_stats)
    monkeypatch.setattr(fingerprints, "cosine_rows", reference_cosine_rows)
    slow = [evaluate(spec, mini_benchmark, n_runs=2, seed=0).to_json()
            for spec in perfbench_families()]
    assert all('"pair_statistics":{"victim-0|' in report for report in fast)
    assert fast == slow


def count_split_predicts(monkeypatch, bench):
    """A Counter of ``predict`` calls on any victim's test points, by model identity."""
    counts = Counter()
    splits = [v.test_data.points for v in bench.victims]
    original = Classifier.predict

    def counting(self, X, *args):
        if any(X is points for points in splits):
            counts[self.identity] += 1
        return original(self, X, *args)

    monkeypatch.setattr(Classifier, "predict", counting)
    return counts


def suspect_ids(bench, victims=None):
    return [
        model.identity
        for v in victims or bench.victims
        for model, _ in bench.stolen[v.model.identity] + bench.unrelated[v.model.identity]
    ]


class TestPairStatsMemo:
    """Pair statistics are computed once per triplet and split and never change an answer."""

    @staticmethod
    def reports(bench):
        families = [perfbench_families()[i] for i in (0, 1, 2, 4)]
        evals = [evaluate(spec, bench, n_runs=2, seed=0).to_json() for spec in families]
        return evals, repr(pair_distance_report(bench))

    def test_four_evaluations_and_a_report_equal_the_oracle(self, mini_benchmark, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_all_pair_stats", reference_all_pair_stats)
            slow = self.reports(replace(mini_benchmark))
        bench = replace(mini_benchmark)  # an empty memo, whatever the fixture has seen
        counts = count_split_predicts(monkeypatch, bench)
        fast = self.reports(bench)
        assert fast == slow
        assert [counts[i] for i in suspect_ids(bench)] == [1] * len(suspect_ids(bench))

    @pytest.mark.parametrize("swap", ["suspect", "split-data"])
    def test_swap_recomputes_that_victim_only(self, mini_benchmark, monkeypatch, swap):
        bench = replace(
            mini_benchmark,
            victims=tuple(replace(v) for v in mini_benchmark.victims),
            stolen=dict(mini_benchmark.stolen),
        )
        pair_distance_report(bench)
        victim = bench.victims[0]
        vid = victim.model.identity
        if swap == "suspect":
            (_, tag), *others = bench.stolen[vid]
            bench.stolen[vid] = ((quantize(victim.model, 3), tag), *others)
        else:
            victim.test_data = victim.test_data.take(np.arange(100))
        with monkeypatch.context() as patch:
            counts = count_split_predicts(patch, bench)
            fast = repr(pair_distance_report(bench))
        assert counts == Counter([vid, *suspect_ids(bench, [victim])])
        monkeypatch.setattr(harness, "_all_pair_stats", reference_all_pair_stats)
        assert fast == repr(pair_distance_report(bench))

    @pytest.mark.parametrize("report_first", [False, True], ids=["evaluate-first", "report-first"])
    def test_nan_victim_skipped_by_evaluate_raised_by_report(self, mini_benchmark, report_first):
        first, *rest = mini_benchmark.victims
        broken = replace(first, model=nan_copy(first.model, first.model.identity))
        bench = replace(mini_benchmark, victims=(broken, *rest))
        if report_first:
            with pytest.raises(NonFiniteAnswer):
                pair_distance_report(bench)
        report = evaluate(mistake_match_scheme(budget=20), bench, n_runs=1, seed=0)
        assert {key.split("|")[0] for key in report.pair_statistics} == {
            v.model.identity for v in rest
        }
        with pytest.raises(NonFiniteAnswer):
            pair_distance_report(bench)

    def test_nan_suspect_raises_every_time(self, mini_benchmark):
        vid = mini_benchmark.victims[0].model.identity
        (model, tag), *others = mini_benchmark.stolen[vid]
        stolen = mini_benchmark.stolen | {vid: ((nan_copy(model), tag), *others)}
        bench = replace(mini_benchmark, stolen=stolen)
        for _ in range(2):
            with pytest.raises(NonFiniteAnswer):
                pair_distance_report(bench)


class TestEvaluate:
    def test_perfect_separation_reports_one(self, mini_benchmark):
        report = evaluate(
            mistake_match_scheme(budget=20), mini_benchmark, n_runs=3, seed=0,
            compute_pair_stats=False,
        )
        assert report.per_task["same"]["mean"] == 1.0
        assert report.per_task["same"]["std"] == 0.0

    def test_same_distribution_scores_give_chance_tpr(self):
        rng = np.random.default_rng(2024)
        values = []
        for _ in range(50):
            scores = []
            for v in range(5):
                for i in range(10):
                    scores.append(
                        PairScore(0, f"v{v}", f"p{i}", "t", True, float(rng.normal()))
                    )
                    scores.append(
                        PairScore(0, f"v{v}", f"n{i}", "u", False, float(rng.normal()))
                    )
            values.append(tpr_at_fpr(roc_curve(scores), 0.05))
        assert 0.02 <= np.mean(values) <= 0.10

    def test_reproducible_report_bytes(self, mini_benchmark):
        a = evaluate(mistake_match_scheme(budget=25), mini_benchmark, n_runs=2, seed=5)
        b = evaluate(mistake_match_scheme(budget=25), mini_benchmark, n_runs=2, seed=5)
        assert a.to_json() == b.to_json()

    def test_aggregate_between_task_extremes(self, mini_benchmark):
        report = evaluate(
            mistake_match_scheme(budget=20), mini_benchmark, n_runs=2, seed=1,
            compute_pair_stats=False,
        )
        means = [report.per_task[t]["mean"] for t in report.per_task]
        agg = report.aggregate["mean_over_tasks"]["mean"]
        assert min(means) <= agg <= max(means)
        for t in report.per_task:
            assert all(0.0 <= v <= 1.0 for v in report.per_task[t]["runs"])

    def test_csv_rows_cover_tasks_runs_and_aggregates(self, mini_benchmark):
        report = evaluate(
            mistake_match_scheme(budget=20), mini_benchmark, n_runs=3, seed=0,
            compute_pair_stats=False,
        )
        rows = report.csv_rows()
        n_tasks = len(report.per_task)
        assert len(rows) == (n_tasks + 2) * 3
        assert {r[2] for r in rows} == {0, 1, 2}

    def test_csv_of_ordinary_labels_is_the_plain_comma_join(self, mini_benchmark, tmp_path):
        """No field needs quoting, so the bytes are each row's ``str`` values joined by commas."""
        report = evaluate(mistake_match_scheme(budget=20), mini_benchmark, n_runs=2, seed=0,
                          compute_pair_stats=False)
        _, cpath = report.save(tmp_path)
        rows = [harness.TPR_CSV_HEADER, *report.csv_rows()]
        assert cpath.read_bytes() == "".join(",".join(map(str, r)) + "\n" for r in rows).encode()

    def test_run_seeds_default_to_contiguous_range(self, mini_benchmark):
        report = evaluate(
            mistake_match_scheme(budget=20), mini_benchmark, n_runs=3, seed=0,
            compute_pair_stats=False,
        )
        assert report.run_seeds == (0, 1, 2)

    def test_pair_stats_embedded(self, mini_benchmark):
        report = evaluate(mistake_match_scheme(budget=20), mini_benchmark, n_runs=1, seed=0)
        key = next(iter(report.pair_statistics))
        entry = report.pair_statistics[key]
        assert set(entry) == {
            "task", "positive", "alpha", "alpha_prime", "delta", "delta_c", "n_eval",
        }
        assert report.model_scale["n_victims"] == 2

    def test_workers_do_not_change_results(self, mini_benchmark, monkeypatch):
        a = evaluate(mistake_match_scheme(budget=20), mini_benchmark, n_runs=2, seed=0,
                     workers=1, compute_pair_stats=False)
        scored, query_set = [], harness.FingerprintScheme.query_set
        monkeypatch.setattr(harness.FingerprintScheme, "query_set",
                            lambda *args: scored.append(os.getpid()) or query_set(*args))
        b = evaluate(mistake_match_scheme(budget=20), mini_benchmark, n_runs=2, seed=0,
                     workers=2, compute_pair_stats=False)
        assert a.to_json() == b.to_json()
        # every cell scored in this process
        assert scored == [os.getpid()] * (2 * len(mini_benchmark.victims))

    def test_infeasible_budget_skips_victims(self, mini_benchmark, caplog):
        with caplog.at_level("WARNING"):
            report = evaluate(
                mistake_match_scheme(budget=10_000), mini_benchmark, n_runs=1, seed=0,
                compute_pair_stats=False,
            )
        assert len(report.skipped) == len(mini_benchmark.victims)
        assert all(s["error"] in ("insufficient-negatives", "budget-exceeds-pool")
                   for s in report.skipped)

    def test_eps_of_another_dimension_skips_victims(self, mini_benchmark):
        dim = mini_benchmark.victims[0].model.input_dim
        spec = SchemeSpec(sampler=AdversarialSampler(eps=(0.1,) * (dim + 1), steps=2),
                          representation="raw_probits", budget=10)
        report = evaluate(spec, mini_benchmark, n_runs=1, seed=0, compute_pair_stats=False)
        assert not report.scores
        assert len(report.skipped) == len(mini_benchmark.victims)
        assert {s["error"] for s in report.skipped} == {"incompatible-task"}

    @pytest.mark.parametrize("fpr_cap", [float("nan"), -0.1, 1.5])
    def test_fpr_cap_outside_unit_interval_rejected(self, mini_benchmark, fpr_cap):
        message = f"fpr_cap must lie in [0, 1], got {fpr_cap}"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(mistake_match_scheme(), mini_benchmark, fpr_cap=fpr_cap)

    def test_run_count_below_one_rejected(self, mini_benchmark):
        for n_runs in (0, -2):
            with pytest.raises(ValueError, match=f"n_runs must be >= 1, got {n_runs}"):
                evaluate(mistake_match_scheme(), mini_benchmark, n_runs=n_runs)

    def test_nan_victim_cell_is_skipped(self, mini_benchmark):
        first, *rest = mini_benchmark.victims
        broken = replace(first, model=nan_copy(first.model, first.model.identity))
        bench = replace(mini_benchmark, victims=(broken, *rest))
        uniform = SchemeSpec(sampler=UniformSampler(), representation="raw_labels",
                             inner_distance="labels", budget=20)
        report = evaluate(uniform, bench, n_runs=2, seed=0, compute_pair_stats=False)
        assert [(s["run"], s["victim"], s["error"]) for s in report.skipped] == [
            (run, first.model.identity, "non-finite-answer") for run in (0, 1)
        ]
        assert {s.victim for s in report.scores} == {v.model.identity for v in rest}
        full = evaluate(uniform, bench, n_runs=2, seed=0)
        assert full.skipped == report.skipped
        assert not any(key.startswith(f"{first.model.identity}|") for key in full.pair_statistics)
        assert {key.split("|")[0] for key in full.pair_statistics} == {
            v.model.identity for v in rest
        }
        with pytest.raises(NonFiniteAnswer):  # no skip list to record the victim in
            pair_distance_report(bench)

    def test_nan_suspect_raises(self, mini_benchmark):
        vid = mini_benchmark.victims[0].model.identity
        (model, tag), *others = mini_benchmark.stolen[vid]
        stolen = mini_benchmark.stolen | {vid: ((nan_copy(model), tag), *others)}
        bench = replace(mini_benchmark, stolen=stolen)
        with pytest.raises(NonFiniteAnswer):
            evaluate(mistake_match_scheme(budget=20), bench, n_runs=1, seed=0,
                     compute_pair_stats=False)


class TestBudgetSweep:
    def test_negative_seed_rejected_before_any_cell(self, mini_benchmark):
        for run in (
            lambda: evaluate(mistake_match_scheme(), mini_benchmark, n_runs=1, seed=-1),
            lambda: budget_sweep(mistake_match_scheme(), mini_benchmark, [10], seed=-3),
        ):
            with pytest.raises(ValueError, match="seed must be >= 0, got -"):
                run()

    def test_ascending_budgets_enforced(self, mini_benchmark):
        with pytest.raises(ValueError):
            budget_sweep(mistake_match_scheme(), mini_benchmark, [50, 10], n_runs=1)

    def test_repeated_budget_rejected_before_any_cell(self, mini_benchmark):
        seen = []
        with pytest.raises(ValueError, match="strictly ascending"):
            budget_sweep(mistake_match_scheme(), mini_benchmark, [8, 8], n_runs=1,
                         cell_callback=lambda budget, report: seen.append(budget))
        assert seen == []

    def test_grid_and_streaming_callback(self, mini_benchmark):
        seen = []
        sweep = budget_sweep(
            mistake_match_scheme(), mini_benchmark, [10, 20], n_runs=2, seed=0,
            cell_callback=lambda budget, report: seen.append(budget),
        )
        assert seen == [10, 20]
        rows = [row for r in sweep.reports.values() for row in r.csv_rows()]
        assert {r[1] for r in rows} == {10, 20}

    def test_partial_grid_on_infeasible_budget(self, mini_benchmark):
        sweep = budget_sweep(
            mistake_match_scheme(), mini_benchmark, [10, 10_000], n_runs=1, seed=0
        )
        assert not sweep.reports[10].skipped
        assert sweep.reports[10_000].skipped

    def test_pairwise_budgets_recorded_without_monotonicity(self, mini_benchmark):
        spec = SchemeSpec(
            sampler=Subsampler(k_variants=1, vicinity_scale=0.7),
            representation="pairwise",
            inner_distance="cosine",
            budget=100,
        )
        sweep = budget_sweep(spec, mini_benchmark, [100, 400], n_runs=2, seed=0)
        for budget in (100, 400):
            agg = sweep.reports[budget].aggregate["mean_over_tasks"]
            assert agg["mean"] is not None


class TestDistanceReport:
    def test_same_only_positives_are_zero(self):
        bench = build_benchmark(micro_config(stolen=(mp.TaskTag("same"),)))
        report = pair_distance_report(bench)
        pos = [r["delta_c"] for r in report.rows if r["positive"]]
        assert pos and all(v == 0.0 for v in pos)
        assert report.overlap == 0.0  # perfectly separated benchmark

    def test_extraction_harder_than_leak(self, mini_benchmark):
        report = pair_distance_report(mini_benchmark)
        assert report.groups["label_extraction"]["mean"] > report.groups["same"]["mean"]
        assert report.groups["unrelated"]["mean"] > report.groups["quantize"]["mean"]

    def test_unknown_split_rejected(self, mini_benchmark):
        message = "split must be one of ('train', 'test'), got 'dev'"
        with pytest.raises(ValueError, match=re.escape(message)):
            pair_distance_report(mini_benchmark, "dev")
        with pytest.raises(ValueError, match="got 'validation'"):
            mini_benchmark.victims[0].data("validation")

    def test_csv_export(self, mini_benchmark, tmp_path):
        report = pair_distance_report(mini_benchmark)
        path = report.save_csv(tmp_path / "dc.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "victim,suspect,task,positive,delta_c"
        assert len(lines) == 1 + len(report.rows)

    def test_csv_round_trip_of_identities_with_commas_quotes_and_line_breaks(self, tmp_path):
        rows = tuple(
            {"victim": victim, "suspect": suspect, "task": "same", "positive": True,
             "delta_c": delta_c}
            for victim, suspect, delta_c in [("a,b", 'say "hi"', 0.25),
                                             ("two\nlines", "crlf\r\nend", None),
                                             ("lone\rcr", "plain", 0.5)]
        )
        path = harness.DistanceReport(rows, {}, None, 1).save_csv(tmp_path / "dc.csv")
        with path.open(newline="") as fh:
            back = list(csv.reader(fh))
        assert back == [["victim", "suspect", "task", "positive", "delta_c"],
                        ["a,b", 'say "hi"', "same", "True", "0.25"],
                        ["two\nlines", "crlf\r\nend", "same", "True", ""],
                        ["lone\rcr", "plain", "same", "True", "0.5"]]
