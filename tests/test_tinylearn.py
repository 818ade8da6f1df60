"""Tests for synthetic tasks and the hand-rolled MLP training stack."""

import struct

import numpy as np
import pytest

import modelprint as mp
from modelprint.errors import CorruptWeights, InfeasibleTask, TrainingDiverged
from modelprint.tinylearn import (
    LinearClassifier,
    MLPClassifier,
    MLPSpec,
    SyntheticTaskSpec,
    TrainConfig,
    _blob_centers,
    generate_task,
    init_weights,
    load_weights,
    save_weights,
    train,
)

from conftest import QUICK_ARCH, QUICK_CFG, QUICK_TASK


class TestGenerateTask:
    def test_same_seed_bit_identical(self):
        a_train, a_test = generate_task(QUICK_TASK)
        b_train, b_test = generate_task(QUICK_TASK)
        np.testing.assert_array_equal(a_train.points, b_train.points)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)
        np.testing.assert_array_equal(a_test.points, b_test.points)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_flip_count_is_exact(self):
        spec = SyntheticTaskSpec("blobs", 4, 6, 1000, 10, label_noise=0.1, seed=5)
        clean = SyntheticTaskSpec("blobs", 4, 6, 1000, 10, label_noise=0.0, seed=5)
        noisy_train, _ = generate_task(spec)
        clean_train, _ = generate_task(clean)
        np.testing.assert_array_equal(noisy_train.points, clean_train.points)
        assert int((noisy_train.labels != clean_train.labels).sum()) == 100

    def test_flipped_labels_stay_in_range(self):
        spec = SyntheticTaskSpec("rings", 3, 2, 500, 10, label_noise=0.3, seed=2)
        train_ds, _ = generate_task(spec)
        assert train_ds.labels.min() >= 1 and train_ds.labels.max() <= 3

    def test_test_labels_are_clean(self):
        spec = SyntheticTaskSpec("blobs", 3, 4, 50, 400, label_noise=0.4, seed=9)
        _, test_ds = generate_task(spec)
        centers = _blob_centers(spec)
        nearest = np.argmin(
            np.linalg.norm(test_ds.points[:, None, :] - centers[None], axis=2), axis=1
        )
        # test labels are the latent cluster of each draw; with moderate
        # spread the nearest center recovers most of them
        assert np.mean(nearest + 1 == test_ds.labels) > 0.8

    def test_separable_blobs_admit_perfect_linear_model(self):
        spec = SyntheticTaskSpec(
            "blobs", 3, 4, 300, 100, label_noise=0.0, noise_scale=0.15, seed=1
        )
        train_ds, _ = generate_task(spec)
        # centers share a norm, so nearest-center is the linear model W=centers
        linear = LinearClassifier(W=_blob_centers(spec))
        assert mp.accuracy(linear, train_ds) == 1.0

    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("moons", dict(num_classes=3, dim=2)),
            ("blobs", dict(num_classes=5, dim=3)),
            ("rings", dict(num_classes=2, dim=1)),
        ],
    )
    def test_infeasible_tasks(self, family, kwargs):
        spec = SyntheticTaskSpec(family, n_train=10, n_test=10, **kwargs)
        with pytest.raises(InfeasibleTask):
            generate_task(spec)

    @pytest.mark.parametrize("family", ["moons", "rings"])
    def test_other_families_generate(self, family):
        c = 2 if family == "moons" else 3
        spec = SyntheticTaskSpec(family, c, 3, 120, 40, seed=4)
        train_ds, test_ds = generate_task(spec)
        assert len(train_ds) == 120 and len(test_ds) == 40
        assert train_ds.dim == 3

    def test_label_noise_bounds_validated(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec("blobs", 3, 4, 10, 10, label_noise=0.5)


class TestTraining:
    def test_reaches_good_accuracy_on_blobs(self):
        spec = SyntheticTaskSpec(
            "blobs", 3, 4, 400, 300, label_noise=0.0, noise_scale=0.6, seed=2
        )
        train_ds, test_ds = generate_task(spec)
        model = train(train_ds, MLPSpec((4, 16, 3), seed=0), TrainConfig(epochs=50))
        assert mp.accuracy(model, test_ds) > 0.9

    def test_zero_learning_rate_keeps_initial_weights(self, quick_task):
        train_ds, _ = quick_task
        arch = MLPSpec((4, 16, 3), seed=21)
        model = train(train_ds, arch, TrainConfig(epochs=3, learning_rate=0.0))
        expected = init_weights(arch, np.random.default_rng(21))
        for (W, b), (We, be) in zip(model.weights, expected):
            np.testing.assert_array_equal(W, We)
            np.testing.assert_array_equal(b, be)

    def test_bit_for_bit_determinism(self, quick_task):
        train_ds, _ = quick_task
        a = train(train_ds, QUICK_ARCH, QUICK_CFG)
        b = train(train_ds, QUICK_ARCH, QUICK_CFG)
        for (Wa, ba), (Wb, bb) in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_divergence_raises(self, quick_task):
        train_ds, _ = quick_task
        with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
            train(train_ds, QUICK_ARCH, TrainConfig(epochs=5, learning_rate=1e9))

    def test_loss_decreases(self, quick_model):
        assert quick_model.train_loss[-1] <= quick_model.train_loss[0] + 1e-6

    def test_label_noise_keeps_victims_imperfect(self):
        for seed in range(3):
            spec = SyntheticTaskSpec(
                "blobs", 3, 4, 300, 250, label_noise=0.1, noise_scale=1.2, seed=seed
            )
            train_ds, test_ds = generate_task(spec)
            model = train(train_ds, MLPSpec((4, 16, 3), seed=seed), QUICK_CFG)
            assert mp.accuracy(model, test_ds) < 1.0

    def test_dimension_mismatch_rejected(self, quick_task):
        train_ds, _ = quick_task
        with pytest.raises(mp.errors.IncompatibleTask):
            train(train_ds, MLPSpec((5, 8, 3)), QUICK_CFG)

    def test_distillation_needs_targets(self, quick_task):
        train_ds, _ = quick_task
        with pytest.raises(ValueError):
            train(train_ds, QUICK_ARCH, TrainConfig(loss="distillation-kl"))


class TestGradients:
    def test_matches_central_finite_differences(self, quick_task):
        train_ds, _ = quick_task
        model = train(train_ds, MLPSpec((4, 12, 3), activation="tanh", seed=5), QUICK_CFG)
        rng = np.random.default_rng(0)
        h = 1e-4
        worst = 0.0
        for _ in range(20):
            x = rng.normal(size=4)
            label = int(rng.integers(1, 4))
            g = model.input_gradient(x, label)
            fd = np.zeros(4)
            for i in range(4):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (
                    model.logits(xp.reshape(1, -1))[0, label - 1]
                    - model.logits(xm.reshape(1, -1))[0, label - 1]
                ) / (2 * h)
            worst = max(worst, np.abs(g - fd).max())
        assert worst < 1e-4

    def test_zero_weight_network_zero_gradient(self):
        spec = MLPSpec((3, 5, 2))
        weights = [(np.zeros((3, 5)), np.zeros(5)), (np.zeros((5, 2)), np.zeros(2))]
        model = MLPClassifier(spec, weights)
        np.testing.assert_array_equal(model.input_gradient(np.ones(3), 1), np.zeros(3))

    def test_linear_model_gradient_is_weight_row(self):
        W = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]])
        model = LinearClassifier(W=W)
        np.testing.assert_array_equal(model.input_gradient(np.ones(3), 2), W[1])

    def test_batched_xent_gradient_matches_composition(self, quick_model):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 4))
        labels = rng.integers(1, 4, size=5)
        fast = quick_model.xent_input_gradient(X, labels)
        slow = mp.Classifier.xent_input_gradient(quick_model, X, labels)
        np.testing.assert_allclose(fast, slow, atol=1e-10)


class TestWeightFiles:
    def test_round_trip_bit_exact(self, quick_model, tmp_path):
        path = tmp_path / "model.mpw"
        save_weights(quick_model, path)
        loaded = load_weights(path, identity=quick_model.identity)
        assert loaded.spec == quick_model.spec
        for (Wa, ba), (Wb, bb) in zip(loaded.weights, quick_model.weights):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.mpw"
        path.write_bytes(b"not a weight file")
        with pytest.raises(ValueError):
            load_weights(path)


class TestCorruptWeights:
    @pytest.fixture
    def raw(self, quick_model, tmp_path):
        path = tmp_path / "model.mpw"
        save_weights(quick_model, path)
        return path.read_bytes()

    def load(self, data: bytes, tmp_path):
        path = tmp_path / "bad.mpw"
        path.write_bytes(data)
        with pytest.raises(CorruptWeights) as err:
            load_weights(path)
        assert err.value.code == "corrupt-weights"
        return str(err.value)

    def test_short_header(self, raw, tmp_path):
        assert "header" in self.load(raw[:10], tmp_path)

    def test_unknown_activation_code(self, raw, tmp_path):
        bad = raw[:6] + struct.pack("<H", 7) + raw[8:]
        assert "activation code 7" in self.load(bad, tmp_path)

    def test_truncated_payload(self, raw, tmp_path):
        assert "payload" in self.load(raw[:-8], tmp_path)

    def test_trailing_bytes(self, raw, tmp_path):
        assert "payload" in self.load(raw + b"\x00", tmp_path)
