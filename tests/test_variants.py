"""Tests for the stolen/unrelated model factory and output-noise wrappers."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.errors import (
    AccessInsufficient,
    DegeneratePrune,
    DegenerateQuantization,
    EmptyQueryPool,
    IncompatibleTask,
)
from modelprint.core import LabeledDataset
from modelprint.samplers import projected_gradient_ascent
from modelprint.tinylearn import (
    MLPSpec,
    SyntheticTaskSpec,
    TrainConfig,
    continue_training,
    train,
)
from modelprint.variants import (
    OutputNoiseWrapper,
    ProbitPerturbation,
    TaskTag,
    TopKOnly,
    extract,
    finetune,
    prune,
    quantize,
    same_copy,
    transfer,
    unrelated,
)

from conftest import QUICK_ARCH, QUICK_CFG


def output_hash(model, points):
    return hashlib.sha256(model.probits(points).tobytes()).hexdigest()


@pytest.fixture()
def probe(quick_task):
    _, test = quick_task
    return test.points[:80]


class TestPrune:
    def test_zero_fraction_is_noop_on_outputs(self, quick_model, probe):
        pruned = prune(quick_model, 0.0)
        np.testing.assert_array_equal(pruned.predict(probe), quick_model.predict(probe))
        assert pruned is not quick_model

    def test_moderate_fraction_matches_per_point_count(self, quick_model, quick_task):
        _, test = quick_task
        pruned = prune(quick_model, 0.3)
        count = int(np.sum(quick_model.predict(test.points) != pruned.predict(test.points)))
        assert count > 0
        assert mp.hamming_distance(quick_model, pruned, test) == count / len(test)

    def test_extreme_fraction_goes_constant(self, quick_model, quick_task):
        _, test = quick_task
        pruned = prune(quick_model, 0.999)
        preds = pruned.predict(test.points)
        assert np.unique(preds).size == 1
        majority_rate = np.bincount(test.labels).max() / len(test)
        assert abs(mp.accuracy(pruned, test) - majority_rate) <= 0.1

    def test_prunes_requested_count_globally(self, quick_model):
        pruned = prune(quick_model, 0.5)
        total = sum(W.size for W, _ in quick_model.weights)
        zeros = sum(int((W == 0).sum()) for W, _ in pruned.weights)
        assert zeros >= int(0.5 * total)

    def test_degenerate_fraction(self, quick_model):
        with pytest.raises(DegeneratePrune):
            prune(quick_model, 1.0)


class TestQuantize:
    def test_generous_bits_preserve_labels(self, quick_model, quick_task):
        _, test = quick_task
        for bits in (16, 24):
            q = quantize(quick_model, bits)
            assert mp.hamming_distance(quick_model, q, test) == 0.0

    def test_grid_is_sign_symmetric(self, quick_model):
        negated = quick_model.clone(
            "negated", weights=[(-W, -b) for W, b in quick_model.weights]
        )
        q_pos = quantize(quick_model, 5)
        q_neg = quantize(negated, 5)
        for (Wp, _), (Wn, _) in zip(q_pos.weights, q_neg.weights):
            np.testing.assert_allclose(Wn, -Wp, atol=1e-15)

    def test_coarse_bits_agree_less(self, quick_model, quick_task):
        _, test = quick_task
        agree = lambda m: 1.0 - mp.hamming_distance(quick_model, m, test)
        assert agree(quantize(quick_model, 2)) < agree(quantize(quick_model, 16))

    def test_degenerate_bits(self, quick_model):
        with pytest.raises(DegenerateQuantization):
            quantize(quick_model, 1)

    @given(bits=st.integers(2, 12), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_levels_within_range_and_count(self, bits, seed):
        rng = np.random.default_rng(seed)
        weights = [(rng.normal(size=(4, 6)), np.zeros(6)), (rng.normal(size=(6, 2)), np.zeros(2))]
        model = mp.MLPClassifier(MLPSpec((4, 6, 2)), weights)
        q = quantize(model, bits)
        for (Wq, _), (W, _) in zip(q.weights, model.weights):
            wmax = np.abs(W).max()
            assert np.abs(Wq).max() <= wmax + 1e-12
            assert np.unique(Wq).size <= 2**bits


class TestFinetuneTransfer:
    def test_zero_learning_rate_finetune_is_identity(self, quick_model, quick_task, probe):
        train_ds, _ = quick_task
        cfg = TrainConfig(epochs=3, learning_rate=0.0)
        ft = finetune(quick_model, train_ds, cfg, seed=1)
        np.testing.assert_array_equal(ft.predict(probe), quick_model.predict(probe))

    def test_short_finetune_stays_close(self, quick_model, quick_task):
        train_ds, test_ds = quick_task
        ft = finetune(quick_model, train_ds, TrainConfig(epochs=5, learning_rate=0.01), seed=2)
        assert abs(mp.accuracy(ft, test_ds) - mp.accuracy(quick_model, test_ds)) <= 0.05

    def test_transfer_learns_new_task(self, quick_model):
        new_spec = SyntheticTaskSpec(
            "blobs", 3, 4, 200, 200, label_noise=0.0, noise_scale=0.8,
            seed=99, concept_seed=5,
        )
        new_train, new_test = mp.generate_task(new_spec)
        moved = transfer(quick_model, new_train, TrainConfig(epochs=25, learning_rate=0.05), seed=3)
        majority = np.bincount(new_test.labels).max() / len(new_test)
        assert mp.accuracy(moved, new_test) > majority
        assert moved.tag.method == "transfer"

    def test_dimension_mismatch(self, quick_model):
        bad = mp.generate_task(SyntheticTaskSpec("blobs", 3, 3, 30, 10, seed=1))[0]
        with pytest.raises(IncompatibleTask):
            transfer(quick_model, bad)
        with pytest.raises(IncompatibleTask):
            finetune(quick_model, bad)


class TestExtraction:
    def test_label_extraction_agrees_with_victim(self, quick_model, quick_task):
        train_ds, test_ds = quick_task
        substitute = extract(quick_model, train_ds, QUICK_ARCH, QUICK_CFG, "labels", seed=1)
        agreement = 1.0 - mp.hamming_distance(quick_model, substitute, test_ds)
        assert agreement > 0.8
        assert substitute.tag.method == "label_extraction"

    def test_probits_leak_more_than_labels(self, quick_model, quick_task):
        train_ds, test_ds = quick_task
        wins = 0
        for seed in range(5):
            lab = extract(quick_model, train_ds, QUICK_ARCH, QUICK_CFG, "labels", seed=seed)
            prob = extract(quick_model, train_ds, QUICK_ARCH, QUICK_CFG, "probits", seed=seed)
            a_lab = 1.0 - mp.hamming_distance(quick_model, lab, test_ds)
            a_prob = 1.0 - mp.hamming_distance(quick_model, prob, test_ds)
            wins += a_prob >= a_lab
        assert wins >= 3

    def test_adversarial_label_extraction_runs(self, quick_model, quick_task):
        train_ds, test_ds = quick_task
        substitute = extract(
            quick_model, train_ds, QUICK_ARCH, QUICK_CFG, "adversarial_labels",
            seed=2, n_adversarial=50,
        )
        assert substitute.tag.method == "adversarial_label_extraction"
        assert substitute.tag.params["n_adversarial"] == 50
        assert 1.0 - mp.hamming_distance(quick_model, substitute, test_ds) > 0.6

    def test_empty_pool_rejected(self, quick_model):
        empty = mp.LabeledDataset(np.empty((0, 4)), [], 3, [])
        with pytest.raises(EmptyQueryPool):
            extract(quick_model, empty, QUICK_ARCH, QUICK_CFG, "labels")

    def test_deterministic(self, quick_model, quick_task):
        train_ds, _ = quick_task
        a = extract(quick_model, train_ds, QUICK_ARCH, QUICK_CFG, "labels", seed=7)
        b = extract(quick_model, train_ds, QUICK_ARCH, QUICK_CFG, "labels", seed=7)
        for (Wa, _), (Wb, _) in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)


class TestUnrelated:
    def test_different_seeds_differ(self, quick_task):
        train_ds, test_ds = quick_task
        a = unrelated(train_ds, QUICK_ARCH, QUICK_CFG, seed=1)
        b = unrelated(train_ds, QUICK_ARCH, QUICK_CFG, seed=2)
        assert mp.hamming_distance(a, b, test_ds) > 0.0
        assert a.tag.method == "unrelated" and not a.tag.is_positive

    def test_same_seed_as_victim_degenerates_to_victim(self, quick_model, quick_task):
        train_ds, test_ds = quick_task
        twin = unrelated(train_ds, QUICK_ARCH, QUICK_CFG, seed=QUICK_ARCH.seed)
        assert mp.hamming_distance(quick_model, twin, test_ds) == 0.0

    def test_unrelated_mistake_overlap_exceeds_stolen(self, quick_model, quick_task):
        train_ds, test_ds = quick_task
        neg = unrelated(train_ds, QUICK_ARCH, QUICK_CFG, seed=33)
        q = quantize(quick_model, 6)
        assert mp.conditioned_hamming(quick_model, neg, test_ds) > mp.conditioned_hamming(
            quick_model, q, test_ds
        )


class TestNonMutation:
    def test_every_variant_leaves_victim_untouched(self, quick_model, quick_task, probe):
        train_ds, _ = quick_task
        before = output_hash(quick_model, probe)
        prune(quick_model, 0.4)
        quantize(quick_model, 3)
        finetune(quick_model, train_ds, TrainConfig(epochs=2, learning_rate=0.1), seed=0)
        transfer(quick_model, train_ds, TrainConfig(epochs=2, learning_rate=0.1), seed=0)
        extract(quick_model, train_ds, QUICK_ARCH, TrainConfig(epochs=2), "labels", seed=0)
        same_copy(quick_model)
        OutputNoiseWrapper(quick_model, ProbitPerturbation(scale=2.0)).probits(probe)
        assert output_hash(quick_model, probe) == before


class TestOutputNoise:
    def test_top_k_wrapper_preserves_argmax(self, quick_model, probe):
        wrapped = OutputNoiseWrapper(quick_model, TopKOnly(2))
        np.testing.assert_array_equal(wrapped.predict(probe), quick_model.predict(probe))
        np.testing.assert_array_equal(
            wrapped.top_k(probe, 2)[:, 0], quick_model.predict(probe)
        )

    def test_top_k_wrapper_limits_access(self, quick_model, probe):
        wrapped = OutputNoiseWrapper(quick_model, TopKOnly(2))
        with pytest.raises(AccessInsufficient):
            wrapped.top_k(probe, 3)
        with pytest.raises(AccessInsufficient):
            wrapped.probits(probe)
        with pytest.raises(AccessInsufficient):
            wrapped.input_gradient(probe[0], 1)

    def test_probit_perturbation_is_deterministic(self, quick_model, probe):
        wrapped = OutputNoiseWrapper(quick_model, ProbitPerturbation(scale=0.5, seed=3))
        P1 = wrapped.probits(probe)
        P2 = wrapped.probits(probe)
        np.testing.assert_array_equal(P1, P2)
        np.testing.assert_allclose(P1.sum(axis=1), 1.0, atol=1e-9)
        assert (P1 >= 0).all()

    def test_probit_perturbation_actually_perturbs(self, quick_model, probe):
        wrapped = OutputNoiseWrapper(quick_model, ProbitPerturbation(scale=0.5, seed=3))
        assert np.abs(wrapped.probits(probe) - quick_model.probits(probe)).max() > 1e-3


class TestTags:
    def test_tags_attached_with_params(self, quick_model):
        assert prune(quick_model, 0.2).tag == TaskTag("prune", {"fraction": 0.2, "seed": 0})
        assert quantize(quick_model, 4).tag == TaskTag("quantize", {"bits": 4})
        assert same_copy(quick_model).tag.method == "same"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            TaskTag("steal-everything")

    def test_record_round_trip(self):
        tag = TaskTag("label_extraction", {"pool_size": 100, "seed": 4})
        assert TaskTag.from_record(tag.to_record()) == tag
        record = '{"method": "label_extraction", "params": {"pool_size": 100, "seed": 4}}'
        assert json.dumps(tag.to_record(), sort_keys=True) == record
        assert TaskTag.from_record(json.loads(record)) == tag
        assert TaskTag.from_record({"method": "same"}) == TaskTag("same")


def reference_adversarial_extract(h_victim, query_pool, arch, cfg, seed=0, n_adversarial=None):
    """``extract(mode="adversarial_labels")`` with the attack box written out inline,
    as it was before ``AdversarialSampler.perturb`` became its one definition."""
    arch = replace(arch, seed=int(seed))
    identity = f"{h_victim.identity}#adversarial_labels-x{seed}"
    X = query_pool.points
    victim_labels = h_victim.predict(X)
    ds = LabeledDataset(X, victim_labels, h_victim.num_classes, np.full(len(X), "train"))
    warmup = max(1, cfg.epochs // 2)
    s_warm, s_rest = (
        int(v) for v in np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    )
    interim = train(
        ds, replace(arch, seed=s_warm), replace(cfg, epochs=warmup), identity=identity
    )
    n_adv = n_adversarial if n_adversarial is not None else len(query_pool) // 2
    n_adv = max(1, min(n_adv, len(query_pool)))
    rng = np.random.default_rng(s_rest)
    idx = rng.choice(len(query_pool), n_adv, replace=False)
    span = X.max(axis=0) - X.min(axis=0)
    eps = 0.1 * span
    U = projected_gradient_ascent(
        interim, X[idx], interim.predict(X[idx]), eps, 20, eps / 8.0
    )
    aug_X = np.concatenate([X, U], axis=0)
    aug_y = np.concatenate([victim_labels, h_victim.predict(U)])
    aug = LabeledDataset(aug_X, aug_y, h_victim.num_classes, np.full(len(aug_X), "train"))
    rest_cfg = replace(cfg, epochs=max(1, cfg.epochs - warmup))
    tag = TaskTag(
        "adversarial_label_extraction",
        {"pool_size": len(query_pool), "n_adversarial": int(n_adv), "seed": int(seed)},
    )
    return continue_training(interim, aug, rest_cfg, s_rest, identity, tag=tag)


@pytest.mark.parametrize("seed, n_adversarial", [(0, None), (3, 17), (11, 500)])
def test_adversarial_extraction_matches_reference(quick_model, quick_task, seed, n_adversarial):
    train_ds, _ = quick_task
    cfg = replace(QUICK_CFG, epochs=6)
    got = extract(quick_model, train_ds, QUICK_ARCH, cfg, "adversarial_labels",
                  seed=seed, n_adversarial=n_adversarial)
    want = reference_adversarial_extract(quick_model, train_ds, QUICK_ARCH, cfg, seed,
                                         n_adversarial)
    assert got.identity == want.identity and got.tag == want.tag
    for (Wg, bg), (Ww, bw) in zip(got.weights, want.weights, strict=True):
        assert Wg.tobytes() == Ww.tobytes() and bg.tobytes() == bw.tobytes()
