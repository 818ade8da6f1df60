"""Tests for scheme assembly and the mistake-matching baseline."""

import json

import numpy as np
import pytest
from scipy import stats

import modelprint as mp
from modelprint.errors import IncompatibleScheme, InsufficientNegatives, NonFiniteAnswer
from modelprint.samplers import (
    AdversarialSampler,
    ChainSampler,
    NegativeSampler,
    Subsampler,
    UniformSampler,
)
from modelprint.schemes import (
    DetectorSpec,
    SchemeSpec,
    mistake_match_scheme,
    mistake_match_test,
    assemble_scheme,
    standard_scheme_grid,
)

from conftest import indexed_classifier, make_indexed_dataset, nan_copy


def constructed_pair(n, match_prob, num_classes=3):
    """Victim wrong everywhere; suspect matches on exactly match_prob * n points."""
    concept = np.ones(n, dtype=np.int64)
    victim = indexed_classifier(np.full(n, 2, dtype=np.int64), num_classes, "victim")
    suspect_labels = np.full(n, 3, dtype=np.int64)
    suspect_labels[: int(round(match_prob * n))] = 2
    suspect = indexed_classifier(suspect_labels, num_classes, "suspect")
    return victim, suspect, make_indexed_dataset(concept, num_classes)


# One spec per sampler kind and both detectors, with the record bytes that
# ``json.dumps(spec.to_record(), sort_keys=True)`` writes for it.
SCHEME_RECORDS = [
    (
        SchemeSpec(UniformSampler(), "raw_probits"),
        '{"budget": 100, "detector": {"kind": "quantile", "target_fpr": 0.05}, '
        '"inner_distance": "cosine", "representation": "raw_probits", '
        '"sampler": {"kind": "uniform"}, "seed_split": "test"}',
    ),
    (
        SchemeSpec(NegativeSampler(), "raw_labels", "labels", DetectorSpec("majority"), budget=50),
        '{"budget": 50, "detector": {"kind": "majority", "target_fpr": 0.05}, '
        '"inner_distance": "labels", "representation": "raw_labels", '
        '"sampler": {"kind": "negative"}, "seed_split": "test"}',
    ),
    (
        SchemeSpec(
            AdversarialSampler(eps=(0.1, 0.25), steps=5, step_size=0.02), "pairwise",
            budget=40, seed_split="train",
        ),
        '{"budget": 40, "detector": {"kind": "quantile", "target_fpr": 0.05}, '
        '"inner_distance": "cosine", "representation": "pairwise", '
        '"sampler": {"eps": [0.1, 0.25], "kind": "adversarial", "step_size": 0.02, "steps": 5}, '
        '"seed_split": "train"}',
    ),
    (
        SchemeSpec(
            Subsampler(k_variants=1, vicinity_scale=0.5), "listwise", "cosine",
            DetectorSpec("quantile", 0.1), budget=30,
        ),
        '{"budget": 30, "detector": {"kind": "quantile", "target_fpr": 0.1}, '
        '"inner_distance": "cosine", "representation": "listwise", '
        '"sampler": {"k_variants": 1, "kind": "subsample", "vicinity_scale": 0.5}, '
        '"seed_split": "test"}',
    ),
    (
        SchemeSpec(
            ChainSampler(NegativeSampler(), AdversarialSampler()), "raw_labels", "labels",
            DetectorSpec("majority"), budget=20,
        ),
        '{"budget": 20, "detector": {"kind": "majority", "target_fpr": 0.05}, '
        '"inner_distance": "labels", "representation": "raw_labels", '
        '"sampler": {"first": {"kind": "negative"}, "kind": "chain", '
        '"second": {"eps": null, "kind": "adversarial", "step_size": null, "steps": 20}}, '
        '"seed_split": "test"}',
    ),
]


class TestBaseline:
    def test_exact_copy_always_flagged(self, quick_model, quick_task):
        _, test = quick_task
        for k in (1, 5, 15):
            for seed in range(5):
                flag, match = mistake_match_test(quick_model, quick_model, test, k, seed)
                assert flag == 1 and match == 1.0

    def test_perfect_suspect_never_flagged(self):
        # delta_c = 1 construction: the suspect answers the truth on every
        # victim mistake, so agreement is impossible
        concept = np.array([1, 1, 2, 2, 1], dtype=np.int64)
        data = make_indexed_dataset(concept, num_classes=3)
        victim = indexed_classifier([3, 3, 3, 3, 3], 3, "bad")
        suspect = data.as_lookup_classifier("truth")
        for seed in range(10):
            flag, match = mistake_match_test(victim, suspect, data, 3, seed)
            assert flag == 0 and match == 0.0

    def test_empty_data_rejected(self):
        data = mp.LabeledDataset(np.empty((0, 1)), [], 2)
        h = indexed_classifier([1], 2)
        with pytest.raises(InsufficientNegatives):
            mistake_match_test(h, h, data, 1, 0)

    def test_uniform_fallback_for_perfect_victim(self, quick_task, caplog):
        _, test = quick_task
        perfect = test.as_lookup_classifier()
        with caplog.at_level("WARNING"):
            flag, match = mistake_match_test(perfect, perfect, test, 5, 0)
        assert flag == 1 and match == 1.0
        assert "falling back" in caplog.text

    def test_budget_lowered_when_few_negatives(self, quick_task, caplog):
        _, test = quick_task
        concept = np.ones(10, dtype=np.int64)
        answers = concept.copy()
        answers[:3] = 2
        data = make_indexed_dataset(concept, 2)
        h = indexed_classifier(answers, 2)
        with caplog.at_level("WARNING"):
            flag, match = mistake_match_test(h, h, data, 8, 0)
        assert flag == 1 and match == 1.0
        assert "lowering budget" in caplog.text

    def test_majority_vote_matches_binomial(self):
        # per-query match probability p, k queries: flag rate approximates
        # P[Binomial(k, p) > k/2] (pool size 4000 makes the without-
        # replacement correction negligible)
        victim, suspect, data = constructed_pair(4000, 0.6)
        k = 5
        flags = [mistake_match_test(victim, suspect, data, k, seed)[0] for seed in range(300)]
        expected = stats.binom.sf(k / 2, k, 0.6)
        assert abs(np.mean(flags) - expected) < 0.08

    def test_score_std_shrinks_with_budget(self):
        victim, suspect, data = constructed_pair(4000, 0.6)
        stds = []
        for k in (25, 100):
            scores = [mistake_match_test(victim, suspect, data, k, seed)[1] for seed in range(300)]
            stds.append(np.std(scores))
        ratio = stds[0] / stds[1]
        assert 2 / 1.5 <= ratio <= 2 * 1.5

    def test_single_query_mismatch_rate_estimates_delta_c(self, quick_model, quick_model_b, quick_task):
        _, test = quick_task
        delta_c = mp.conditioned_hamming(quick_model, quick_model_b, test)
        n = len(test)
        mismatches = [
            1 - mistake_match_test(quick_model, quick_model_b, test, 1, seed)[1]
            for seed in range(400)
        ]
        assert abs(np.mean(mismatches) - delta_c) < 1.5 / np.sqrt(400)


class TestSchemeEquivalence:
    def test_negative_raw_labels_reproduces_baseline(self, quick_model, quick_model_b, quick_task):
        _, test = quick_task
        scheme = assemble_scheme(mistake_match_scheme(budget=20))
        for seed in range(5):
            dist = scheme.score(quick_model, quick_model_b, test, seed)
            flag, match = mistake_match_test(quick_model, quick_model_b, test, 20, seed)
            assert dist == pytest.approx(1.0 - match, abs=1e-12)
            flag_s, dist_s, thr = scheme.flag(quick_model, quick_model_b, test, seed)
            assert dist_s == dist and thr == 0.5
            assert flag_s == flag

    def test_uniform_raw_labels_is_hamming_on_sample(self, quick_model, quick_model_b, quick_task):
        _, test = quick_task
        spec = SchemeSpec(
            sampler=UniformSampler(),
            representation="raw_labels",
            inner_distance="labels",
            budget=40,
        )
        scheme = assemble_scheme(spec)
        qs = scheme.query_set(quick_model, test, seed=9)
        sampled = test.take(qs.source_indices)
        assert scheme.score(quick_model, quick_model_b, test, 9) == mp.pair_stats(
            quick_model, quick_model_b, sampled
        ).delta


class TestCellDistances:
    def test_no_cells_no_distances(self, quick_model):
        scheme = assemble_scheme(mistake_match_scheme(budget=4))
        got = scheme.cell_distances([], [quick_model])
        assert got.shape == (0, 1) and got.dtype == np.float64

    def test_cells_of_unequal_size_rejected(self, quick_model, quick_task):
        _, test = quick_task
        scheme = assemble_scheme(SchemeSpec(sampler=UniformSampler(), representation="raw_labels",
                                            inner_distance="labels", budget=4))
        cells = []
        for budget in (4, 6):
            qs = UniformSampler().sample(test, None, budget, seed=0)
            cells.append((scheme.fingerprint(quick_model, qs), qs))
        with pytest.raises(ValueError, match=r"one query-set size, got sizes \[4, 6\]"):
            scheme.cell_distances(cells, [quick_model])


class TestSchemeSpec:
    def test_pairwise_needs_pairing_sampler(self):
        with pytest.raises(IncompatibleScheme):
            SchemeSpec(sampler=UniformSampler(), representation="pairwise")

    def test_pairwise_needs_half_cover(self):
        with pytest.raises(IncompatibleScheme):
            SchemeSpec(
                sampler=Subsampler(k_variants=3, vicinity_scale=0.5),
                representation="pairwise",
                budget=100,
            )
        SchemeSpec(  # k_variants=1 pairs half the budget: valid
            sampler=Subsampler(k_variants=1, vicinity_scale=0.5),
            representation="pairwise",
            budget=100,
        )

    def test_json_round_trip(self):
        spec = SchemeSpec(
            sampler=ChainSampler(NegativeSampler(), AdversarialSampler(steps=7)),
            representation="listwise",
            inner_distance="cosine",
            detector=DetectorSpec(kind="quantile", target_fpr=0.1),
            budget=60,
            seed_split="train",
        )
        assert SchemeSpec.from_record(spec.to_record()) == spec

    def test_vector_eps_json_round_trip(self):
        spec = SchemeSpec(
            sampler=AdversarialSampler(eps=np.array([0.1, 0.2, 0.3, 0.4]), steps=5),
            representation="raw_labels",
            budget=20,
        )
        back = SchemeSpec.from_record(json.loads(json.dumps(spec.to_record())))
        assert back == spec
        assert back.sampler.eps == (0.1, 0.2, 0.3, 0.4)
        assert AdversarialSampler(eps=np.float64(0.3)).eps == 0.3
        with pytest.raises(ValueError, match="eps"):
            AdversarialSampler(eps=np.ones((2, 2)))

    @pytest.mark.parametrize(
        "spec, record", SCHEME_RECORDS, ids=[spec.label() for spec, _ in SCHEME_RECORDS]
    )
    def test_record_bytes_are_pinned(self, spec, record):
        assert json.dumps(spec.to_record(), sort_keys=True) == record
        assert SchemeSpec.from_record(json.loads(record)) == spec

    def test_omitted_keys_take_the_defaults(self):
        rec = {"sampler": {"kind": "uniform"}, "representation": "raw_labels"}
        assert SchemeSpec.from_record(rec) == SchemeSpec(UniformSampler(), "raw_labels")


class TestEnumeration:
    def test_grid_runs_end_to_end(self, quick_model, quick_model_b, quick_task):
        _, test = quick_task
        specs = standard_scheme_grid(budget=24)
        assert len(specs) >= 24
        calibration = [
            mp.unrelated(quick_task[0], mp.MLPSpec((4, 16, 3), seed=s),
                         mp.TrainConfig(epochs=8), seed=s)
            for s in (40, 41)
        ]
        for spec in specs:
            scheme = assemble_scheme(spec)
            dist = scheme.score(quick_model, quick_model_b, test, seed=1)
            assert np.isfinite(dist) and dist >= 0.0
            flag, _, _ = scheme.flag(
                quick_model, quick_model_b, test, seed=1, calibration_models=calibration
            )
            assert flag in (0, 1)

    def test_access_restricted_suspect_fails_probit_schemes(self, quick_model, quick_task):
        _, test = quick_task
        wrapped = mp.FunctionClassifier(quick_model.predict, 3, 4)
        spec = SchemeSpec(sampler=UniformSampler(), representation="raw_probits", budget=10)
        with pytest.raises(mp.errors.AccessInsufficient):
            assemble_scheme(spec).score(quick_model, wrapped, test, 0)


class TestNonFiniteAnswers:
    def test_handle_queries_raise(self, quick_model, quick_task, tmp_path):
        # NaN weights survive a weight file; every probit-based query refuses them
        mp.save_weights(nan_copy(quick_model), tmp_path / "nan.mpw")
        loaded = mp.load_weights(tmp_path / "nan.mpw")
        X = quick_task[1].points[:5]
        for query in (loaded.probits, loaded.predict, lambda X: loaded.top_k(X, 2)):
            with pytest.raises(NonFiniteAnswer, match="non-finite-answer"):
                query(X)

    @pytest.mark.parametrize(
        "sampler, representation, inner",
        [
            (UniformSampler(), "raw_labels", "labels"),
            (UniformSampler(), "raw_probits", "cosine"),
            (Subsampler(k_variants=1), "pairwise", "cosine"),
            (Subsampler(k_variants=1), "pairwise", "labels"),
            (UniformSampler(), "listwise", "cosine"),
            (UniformSampler(), "listwise", "labels"),
        ],
    )
    def test_nan_suspect_gets_no_verdict(
        self, sampler, representation, inner, quick_model, quick_model_b, quick_task
    ):
        _, test = quick_task
        spec = SchemeSpec(sampler=sampler, representation=representation,
                          inner_distance=inner, budget=20)
        scheme = assemble_scheme(spec)
        suspect = nan_copy(quick_model)
        with pytest.raises(NonFiniteAnswer):
            scheme.score(quick_model, suspect, test, seed=0)
        with pytest.raises(NonFiniteAnswer):
            scheme.flag(quick_model, suspect, test, seed=0, calibration_models=[quick_model_b])
