"""Tests for the query samplers."""

import json

import numpy as np
import pytest

import modelprint as mp
from modelprint.errors import (
    BudgetExceedsPool,
    BudgetShapeMismatch,
    GradientRequired,
    IncompatibleScheme,
    InsufficientNegatives,
)
from modelprint.samplers import (
    AdversarialSampler,
    ChainSampler,
    NegativeSampler,
    Subsampler,
    UniformSampler,
    sampler_from_record,
)
from modelprint.tinylearn import LinearClassifier

from conftest import indexed_classifier, make_indexed_dataset


def sorted_rows(arr):
    return np.array(sorted(map(tuple, arr)))


class TestUniform:
    def test_full_budget_is_permutation(self, quick_task):
        _, test = quick_task
        qs = UniformSampler().sample(test, None, len(test), seed=0)
        np.testing.assert_array_equal(sorted_rows(qs.points), sorted_rows(test.points))
        assert qs.pairing is None

    def test_deterministic(self, quick_task):
        _, test = quick_task
        a = UniformSampler().sample(test, None, 50, seed=4)
        b = UniformSampler().sample(test, None, 50, seed=4)
        np.testing.assert_array_equal(a.points, b.points)

    def test_budget_exceeds_pool(self, quick_task):
        _, test = quick_task
        with pytest.raises(BudgetExceedsPool):
            UniformSampler().sample(test, None, len(test) + 1, seed=0)

    def test_class_histogram_tracks_pool(self):
        # aggregate 50 seeded draws of 100 from 1000; counts stay within
        # 3 sigma of the multinomial expectation (without-replacement
        # variance is smaller, so the multinomial sigma is conservative)
        rng = np.random.default_rng(123)
        labels = rng.integers(1, 5, size=1000)
        pool = make_indexed_dataset(labels, num_classes=4)
        counts = np.zeros(4)
        for seed in range(50):
            qs = UniformSampler().sample(pool, None, 100, seed=seed)
            drawn = labels[qs.source_indices]
            counts += np.bincount(drawn, minlength=5)[1:]
        total = 50 * 100
        p = np.bincount(labels, minlength=5)[1:] / 1000
        sigma = np.sqrt(total * p * (1 - p))
        assert (np.abs(counts - total * p) <= 3 * sigma).all()


class TestNegative:
    def test_defining_property(self, quick_model, quick_task):
        _, test = quick_task
        qs = NegativeSampler().sample(test, quick_model, 20, seed=1)
        labels = test.labels[qs.source_indices]
        assert (quick_model.predict(qs.points) != labels).all()

    def test_perfect_model_has_no_negatives(self, quick_task):
        _, test = quick_task
        with pytest.raises(InsufficientNegatives) as err:
            NegativeSampler().sample(test, test.as_lookup_classifier(), 1, seed=0)
        assert err.value.available == 0

    def test_available_count_enumerated(self):
        # model wrong on exactly 100 of 1000 points
        concept = np.ones(1000, dtype=np.int64)
        answers = concept.copy()
        answers[:100] = 2
        pool = make_indexed_dataset(concept, num_classes=2)
        h = indexed_classifier(answers, 2)
        with pytest.raises(InsufficientNegatives) as err:
            NegativeSampler().sample(pool, h, 150, seed=0)
        assert err.value.available == 100
        qs = NegativeSampler().sample(pool, h, 100, seed=0)
        assert sorted(qs.source_indices) == list(range(100))


class TestAdversarial:
    def test_zero_radius_returns_seeds_exactly(self, quick_model, quick_task):
        _, test = quick_task
        sampler = AdversarialSampler(eps=0.0, steps=5, step_size=0.1)
        qs = sampler.sample(test, quick_model, 20, seed=2)
        np.testing.assert_array_equal(qs.points[:10], qs.points[10:])

    def test_ball_membership(self, quick_model, quick_task):
        _, test = quick_task
        sampler = AdversarialSampler()  # default radius: 0.1 x data range
        qs = sampler.sample(test, quick_model, 40, seed=3)
        eps = 0.1 * (test.points.max(axis=0) - test.points.min(axis=0))
        gap = np.abs(qs.points[20:] - qs.points[:20])
        assert (gap <= eps + 1e-12).all()

    def test_pairing_structure(self, quick_model, quick_task):
        _, test = quick_task
        sampler = AdversarialSampler(eps=0.5, steps=5, step_size=0.1)
        qs = sampler.sample(test, quick_model, 8, seed=0)
        assert qs.pairing == tuple((i, i + 4) for i in range(4))

    def test_label_flip_matches_closed_form_margin(self):
        # binary linear model: the corner of the eps-box flips the label
        # exactly when eps * ||w2 - w1||_1 exceeds the logit gap at x
        W = np.array([[1.0, 0.3], [-1.0, -0.3]])
        model = LinearClassifier(W=W, identity="margin")
        x = np.array([[0.5, 0.0]])
        pool = mp.LabeledDataset(x, [1], 2, ["test"])
        gap = (W[0] - W[1]) @ x[0]  # logit_1 - logit_2 at the seed point
        l1 = np.abs(W[1] - W[0]).sum()
        for eps in (0.2, 0.6):
            sampler = AdversarialSampler(eps=eps, steps=20, step_size=eps / 8)
            qs = sampler.sample(pool, model, 2, seed=0)
            adv_label = model.predict(qs.points[1:])[0]
            flips_analytically = eps * l1 > gap
            assert (adv_label != 1) == flips_analytically

    def test_requires_gradient_access(self, quick_task):
        _, test = quick_task
        label_only = indexed_classifier([1] * len(test), 3)
        with pytest.raises(GradientRequired):
            AdversarialSampler(eps=0.1).sample(test, label_only, 10, seed=0)

    def test_odd_budget_rejected(self, quick_model, quick_task):
        _, test = quick_task
        with pytest.raises(BudgetShapeMismatch):
            sampler = AdversarialSampler(eps=0.1, steps=5, step_size=0.01)
            sampler.sample(test, quick_model, 7, seed=0)

    def test_vector_eps_equals_constant_scalar(self, quick_model, quick_task):
        _, test = quick_task
        scalar = AdversarialSampler(eps=0.3, steps=5, step_size=0.05)
        vector = AdversarialSampler(eps=np.full(test.dim, 0.3), steps=5, step_size=0.05)
        a = scalar.sample(test, quick_model, 20, seed=4)
        b = vector.sample(test, quick_model, 20, seed=4)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.provenance["eps"] == 0.3
        assert b.provenance["eps"] == [0.3] * test.dim


class TestSubsampler:
    def test_counts_and_pairing(self, quick_task):
        _, test = quick_task
        qs = Subsampler(k_variants=9, vicinity_scale=0.5).sample(test, None, 100, seed=1)
        assert qs.size == 100
        assert len(qs.pairing) == 90
        assert all(i < 10 <= j for i, j in qs.pairing)

    def test_zero_variants_returns_seeds_only(self, quick_task):
        _, test = quick_task
        qs = Subsampler(k_variants=0, vicinity_scale=0.5).sample(test, None, 25, seed=1)
        assert qs.size == 25 and qs.pairing is None
        np.testing.assert_array_equal(qs.points, test.points[qs.source_indices])

    def test_full_vicinity_copies_seeds(self, quick_task):
        _, test = quick_task
        qs = Subsampler(k_variants=2, vicinity_scale=1.0).sample(test, None, 30, seed=1)
        for i, j in qs.pairing:
            np.testing.assert_array_equal(qs.points[i], qs.points[j])

    def test_variants_are_masked_seeds(self, quick_task):
        _, test = quick_task
        qs = Subsampler(k_variants=3, vicinity_scale=0.6).sample(test, None, 40, seed=7)
        for i, j in qs.pairing:
            seed_pt, var = qs.points[i], qs.points[j]
            kept = var != 0.0
            np.testing.assert_array_equal(var[kept], seed_pt[kept])

    def test_budget_shape_mismatch(self, quick_task):
        _, test = quick_task
        with pytest.raises(BudgetShapeMismatch):
            Subsampler(k_variants=3, vicinity_scale=0.5).sample(test, None, 41, seed=0)


class TestChain:
    def test_negative_then_adversarial_seed_half_is_misclassified(
        self, quick_model, quick_task
    ):
        _, test = quick_task
        chain = ChainSampler(NegativeSampler(), AdversarialSampler(eps=0.3))
        qs = chain.sample(test, quick_model, 20, seed=5)
        seeds = qs.points[:10]
        seed_labels = test.labels[qs.source_indices[:10]]
        assert (quick_model.predict(seeds) != seed_labels).all()
        assert qs.provenance["stages"][0]["sampler"] == "negative"
        assert qs.provenance["stages"][1]["sampler"] == "adversarial"

    def test_uniform_chain_full_budget_is_uniform(self, quick_task):
        _, test = quick_task
        chain = ChainSampler(UniformSampler(), UniformSampler())
        qs = chain.sample(test, None, len(test), seed=0)
        np.testing.assert_array_equal(sorted_rows(qs.points), sorted_rows(test.points))

    def test_point_synthesizing_first_stage_rejected(self, quick_model, quick_task):
        _, test = quick_task
        chain = ChainSampler(AdversarialSampler(eps=0.1), UniformSampler())
        with pytest.raises(IncompatibleScheme):
            chain.sample(test, quick_model, 10, seed=0)

    def test_errors_propagate_from_stages(self, quick_task):
        _, test = quick_task
        perfect = test.as_lookup_classifier()
        chain = ChainSampler(NegativeSampler(), UniformSampler())
        with pytest.raises(InsufficientNegatives):
            chain.sample(test, perfect, 10, seed=0)


ADVERSARIAL_DEFAULTS = {"kind": "adversarial", "eps": None, "steps": 20, "step_size": None}

RECORDS = [
    (UniformSampler(), {"kind": "uniform"}),
    (NegativeSampler(), {"kind": "negative"}),
    (
        AdversarialSampler(eps=0.25, steps=7, step_size=0.05),
        {"kind": "adversarial", "eps": 0.25, "steps": 7, "step_size": 0.05},
    ),
    (
        Subsampler(k_variants=4, vicinity_scale=0.3),
        {"kind": "subsample", "k_variants": 4, "vicinity_scale": 0.3},
    ),
    (
        ChainSampler(NegativeSampler(), AdversarialSampler()),
        {"kind": "chain", "first": {"kind": "negative"}, "second": ADVERSARIAL_DEFAULTS},
    ),
    (
        AdversarialSampler(eps=np.array([0.1, 0.2, 0.3, 0.4])),
        ADVERSARIAL_DEFAULTS | {"eps": (0.1, 0.2, 0.3, 0.4)},
    ),
    (
        ChainSampler(ChainSampler(UniformSampler(), NegativeSampler()), Subsampler(k_variants=1)),
        {
            "kind": "chain",
            "first": {"kind": "chain", "first": {"kind": "uniform"}, "second": {"kind": "negative"}},
            "second": {"kind": "subsample", "k_variants": 1, "vicinity_scale": 0.8},
        },
    ),
]


class TestRecords:
    @pytest.mark.parametrize(
        "sampler, record", RECORDS, ids=[f"sampler{i}" for i in range(len(RECORDS))]
    )
    def test_round_trip(self, sampler, record):
        assert sampler.to_record() == record
        # key order and value types reach the JSON that reports embed
        assert json.dumps(sampler.to_record()) == json.dumps(record)
        assert sampler_from_record(sampler.to_record()) == sampler

    def test_membership_of_pool_samplers(self, quick_model, quick_task):
        # uniform and negative draws are rows of the pool, exactly
        _, test = quick_task
        pool_rows = {row.tobytes() for row in test.points}
        for qs in (
            UniformSampler().sample(test, None, 30, seed=2),
            NegativeSampler().sample(test, quick_model, 15, seed=2),
        ):
            assert all(row.tobytes() in pool_rows for row in qs.points)
