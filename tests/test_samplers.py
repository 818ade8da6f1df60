"""Tests for the query samplers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.core import Access
from modelprint.errors import (
    BudgetExceedsPool,
    BudgetShapeMismatch,
    GradientRequired,
    IncompatibleScheme,
    IncompatibleTask,
    InsufficientNegatives,
)
from modelprint.samplers import (
    AdversarialSampler,
    ChainSampler,
    NegativeSampler,
    QuerySet,
    Subsampler,
    UniformSampler,
    _check_budget,
    projected_gradient_ascent,
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
        pool = mp.LabeledDataset(x, [1], 2)
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

    @pytest.mark.parametrize(
        "params, message",
        [
            (dict(steps=-3), "steps must be >= 0, got -3"),
            (dict(eps=-0.5), "eps must be finite and >= 0"),
            (dict(eps=(0.1, -0.2, 0.1, 0.1)), "eps must be finite and >= 0"),
            (dict(eps=float("inf")), "eps must be finite and >= 0"),
            (dict(eps=(0.1, float("nan"))), "eps must be finite and >= 0"),
            (dict(step_size=-0.01), "step_size must be finite and >= 0"),
            (dict(step_size=float("inf")), "step_size must be finite and >= 0"),
            (dict(step_size=float("nan")), "step_size must be finite and >= 0"),
        ],
    )
    def test_negative_or_non_finite_parameters_rejected(self, params, message):
        with pytest.raises(ValueError, match=message):
            AdversarialSampler(**params)

    def test_eps_of_another_dimension_is_incompatible_task(self, quick_model, quick_task):
        _, test = quick_task
        sampler = AdversarialSampler(eps=(0.1, 0.2), steps=2)
        with pytest.raises(IncompatibleTask, match="eps has 2 components") as err:
            sampler.sample(test, quick_model, 20, seed=0)
        assert err.value.code == "incompatible-task"


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

    @pytest.mark.parametrize("second, budget", [
        (AdversarialSampler(), 1),
        (Subsampler(k_variants=3), 1),
        (Subsampler(k_variants=3), 2),
        (Subsampler(k_variants=3), 3),
    ])
    def test_second_stage_without_seed_points_is_budget_shape_mismatch(
        self, quick_model, quick_task, second, budget
    ):
        _, test = quick_task
        chain = ChainSampler(NegativeSampler(), second)
        message = f"chain stage {second.name} takes 0 seed points at budget {budget}"
        with pytest.raises(BudgetShapeMismatch, match=message):
            chain.sample_runs([test, test], quick_model, budget, [0, 1])
        with pytest.raises(BudgetShapeMismatch, match=message):
            chain.sample(test, quick_model, budget, seed=0)


@pytest.mark.parametrize("sampler", [
    UniformSampler(), NegativeSampler(), AdversarialSampler(), Subsampler(k_variants=1),
    ChainSampler(NegativeSampler(), AdversarialSampler()),
], ids=lambda sampler: sampler.name)
def test_no_runs_give_no_query_sets(sampler, quick_model):
    assert sampler.sample_runs([], quick_model, 10, []) == []


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


# ---------------------------------------------------------------------------
# Oracle: the per-sampler draws and provenance dicts that the shared
# ``Sampler`` helpers replaced, kept verbatim as references.
# ---------------------------------------------------------------------------


def reference_uniform(sampler, seed_set, model, budget, seed):
    budget = _check_budget(budget)
    n = len(seed_set)
    if budget > n:
        raise BudgetExceedsPool(f"budget {budget} > pool size {n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, budget, replace=False)
    return QuerySet(
        seed_set.points[idx],
        provenance={"sampler": sampler.name, "budget": budget, "seed": int(seed)},
        source_indices=idx,
    )


def reference_negative(sampler, seed_set, model, budget, seed):
    budget = _check_budget(budget)
    if model is None:
        raise ValueError("negative sampling needs the victim model")
    wrong = np.flatnonzero(model.predict(seed_set.points) != seed_set.labels)
    if wrong.size < budget:
        raise InsufficientNegatives(
            f"victim misclassifies {wrong.size} of {len(seed_set)} pool "
            f"points, budget is {budget}",
            available=int(wrong.size),
        )
    rng = np.random.default_rng(seed)
    idx = wrong[rng.choice(wrong.size, budget, replace=False)]
    return QuerySet(
        seed_set.points[idx],
        provenance={"sampler": sampler.name, "budget": budget, "seed": int(seed)},
        source_indices=idx,
    )


def reference_resolve_eps(sampler, seed_set):
    if sampler.eps is not None:
        return np.broadcast_to(
            np.asarray(sampler.eps, dtype=np.float64), (seed_set.dim,)
        ).copy()
    span = seed_set.points.max(axis=0) - seed_set.points.min(axis=0)
    return 0.1 * span


def reference_adversarial(sampler, seed_set, model, budget, seed):
    budget = _check_budget(budget)
    if budget % 2:
        raise BudgetShapeMismatch(
            f"adversarial sampling needs an even budget, got {budget}"
        )
    if model is None or model.access < Access.GRADIENTS:
        raise GradientRequired("adversarial sampling needs gradient access")
    half = budget // 2
    n = len(seed_set)
    if half > n:
        raise BudgetExceedsPool(f"needs {half} seed points, pool has {n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, half, replace=False)
    X = seed_set.points[idx]
    eps = reference_resolve_eps(sampler, seed_set)
    step = eps / 8.0 if sampler.step_size is None else sampler.step_size
    U = projected_gradient_ascent(model, X, model.predict(X), eps, sampler.steps, step)
    return QuerySet(
        np.concatenate([X, U], axis=0),
        provenance={
            "sampler": sampler.name,
            "budget": budget,
            "seed": int(seed),
            "eps": None if sampler.eps is None else np.asarray(sampler.eps, float).tolist(),
            "steps": int(sampler.steps),
            "step_size": None if sampler.step_size is None else float(sampler.step_size),
        },
        pairing=tuple((i, i + half) for i in range(half)),
        source_indices=np.concatenate([idx, np.full(half, -1, dtype=np.int64)]),
    )


def reference_subsample(sampler, seed_set, model, budget, seed):
    budget = _check_budget(budget)
    block = 1 + sampler.k_variants
    if budget % block:
        raise BudgetShapeMismatch(
            f"budget {budget} is not a multiple of 1 + k_variants = {block}"
        )
    n_seeds = budget // block
    n = len(seed_set)
    if n_seeds > n:
        raise BudgetExceedsPool(f"needs {n_seeds} seed points, pool has {n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, n_seeds, replace=False)
    X = seed_set.points[idx]
    k, d = sampler.k_variants, seed_set.dim
    if k:
        keep = rng.random((n_seeds, k, d)) < sampler.vicinity_scale
        variants = (X[:, None, :] * keep).reshape(n_seeds * k, d)
        points = np.concatenate([X, variants], axis=0)
        pairing = tuple(
            (i, n_seeds + i * k + j) for i in range(n_seeds) for j in range(k)
        )
        src = np.concatenate([idx, np.full(n_seeds * k, -1, dtype=np.int64)])
    else:
        points, pairing, src = X, None, idx
    return QuerySet(
        points,
        provenance={
            "sampler": sampler.name,
            "budget": budget,
            "seed": int(seed),
            "k_variants": int(sampler.k_variants),
            "vicinity_scale": float(sampler.vicinity_scale),
        },
        pairing=pairing,
        source_indices=src,
    )


def reference_chain(sampler, seed_set, model, budget, seed):
    """``ChainSampler.sample`` with its stages drawn by the references."""
    budget = _check_budget(budget)
    s1, s2 = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    first_budget = sampler.second.seed_budget(budget)
    if first_budget < 1:
        raise BudgetShapeMismatch(f"chain stage {sampler.second.name} takes {first_budget} "
                                  f"seed points at budget {budget}")
    q1 = reference_sample(sampler.first, seed_set, model, first_budget, int(s1))
    if q1.source_indices is None or (q1.source_indices < 0).any():
        raise IncompatibleScheme(
            f"{sampler.first.name} synthesizes points and cannot seed a chain stage"
        )
    q2 = reference_sample(sampler.second, seed_set.take(q1.source_indices), model, budget, int(s2))
    src = None
    if q2.source_indices is not None:
        src = np.where(
            q2.source_indices >= 0, q1.source_indices[np.maximum(q2.source_indices, 0)], -1
        )
    provenance = {
        "sampler": sampler.name, "budget": budget, "seed": int(seed),
        "stages": [q1.provenance, q2.provenance],
    }
    return QuerySet(q2.points, provenance, pairing=q2.pairing, source_indices=src)


REFERENCE_SAMPLE = {
    "uniform": reference_uniform,
    "negative": reference_negative,
    "adversarial": reference_adversarial,
    "subsample": reference_subsample,
    "chain": reference_chain,
}


def reference_sample(sampler, seed_set, model, budget, seed):
    return REFERENCE_SAMPLE[sampler.name](sampler, seed_set, model, budget, seed)


def sample_outcome(fn, *args):
    """A query set, or the type of the error raised instead of one."""
    try:
        return fn(*args)
    except Exception as err:  # the error type is the outcome
        return type(err)


ORACLE_SAMPLERS = [
    UniformSampler(),
    NegativeSampler(),
    AdversarialSampler(),
    AdversarialSampler(eps=0.2),
    AdversarialSampler(eps=(0.05, 0.1, 0.2, 0.4)),
    AdversarialSampler(eps=0.3, steps=5, step_size=0.07),
    AdversarialSampler(steps=3, step_size=0.11),
    Subsampler(k_variants=0),
    Subsampler(k_variants=1, vicinity_scale=0.5),
    Subsampler(k_variants=3),
    ChainSampler(NegativeSampler(), AdversarialSampler()),
    ChainSampler(UniformSampler(), Subsampler(k_variants=1)),
    ChainSampler(AdversarialSampler(eps=0.1), UniformSampler()),
]


@st.composite
def oracle_cases(draw):
    """A sampler, pool size and budget; half the budgets put the seed count at the pool's edge."""
    sampler = draw(st.sampled_from(ORACLE_SAMPLERS))
    pool_size = draw(st.integers(1, 60))
    edge = [b for b in range(1, 4 * pool_size + 8) if abs(sampler.seed_budget(b) - pool_size) <= 1]
    budget = draw(st.one_of(st.integers(1, 90), st.sampled_from(edge)))
    return sampler, pool_size, budget


class TestOracle:
    @given(case=oracle_cases(), seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_query_sets_match_reference(self, quick_model, quick_task, case, seed):
        sampler, pool_size, budget = case
        _, test = quick_task
        pool = test.take(np.arange(pool_size))
        got = sample_outcome(sampler.sample, pool, quick_model, budget, seed)
        want = sample_outcome(reference_sample, sampler, pool, quick_model, budget, seed)
        if isinstance(want, type):
            assert got is want
            return
        assert isinstance(got, QuerySet)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.pairing == want.pairing
        if want.source_indices is None:
            assert got.source_indices is None
        else:
            assert got.source_indices.dtype == want.source_indices.dtype
            assert got.source_indices.tobytes() == want.source_indices.tobytes()
        assert got.provenance == want.provenance
        assert json.dumps(got.provenance) == json.dumps(want.provenance)
