"""Tests for synthetic tasks and the hand-rolled MLP training stack."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.errors import (
    CorruptWeights,
    InfeasibleTask,
    ModelprintError,
    TrainingDiverged,
)
from modelprint.tinylearn import (
    LinearClassifier,
    MLPClassifier,
    MLPSpec,
    SyntheticTaskSpec,
    TrainConfig,
    TrainJob,
    _blob_centers,
    _sgd_epochs,
    fit_stack,
    generate_task,
    init_weights,
    load_weights,
    save_weights,
    train,
    train_job,
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


def reference_sgd_epochs(weights, activation, X, T, cfg, rng):
    """One model at a time, on 2-D arrays: the loop that stacked SGD replaced."""

    def act(Z):
        return np.maximum(Z, 0.0) if activation == "relu" else np.tanh(Z)

    def act_grad(A):
        return (A > 0.0).astype(np.float64) if activation == "relu" else 1.0 - A * A

    def forward(Xb):
        A = [Xb]
        for W, b in weights[:-1]:
            A.append(act(A[-1] @ W + b))
        W, b = weights[-1]
        return A, A[-1] @ W + b

    def softmax(logits):
        Z = logits - logits.max(axis=1, keepdims=True)
        E = np.exp(Z)
        return E / E.sum(axis=1, keepdims=True)

    n = X.shape[0]
    lr, wd = cfg.learning_rate, cfg.weight_decay
    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            Xb, Tb = X[idx], T[idx]
            A, logits = forward(Xb)
            P = softmax(logits)
            loss_sum += -np.sum(Tb * np.log(np.maximum(P, 1e-300)))
            g = (P - Tb) / len(idx)
            for layer in reversed(range(len(weights))):
                W, b = weights[layer]
                dW = A[layer].T @ g + wd * W
                db = g.sum(axis=0)
                if layer > 0:
                    g = (g @ W.T) * act_grad(A[layer])
                W -= lr * dW
                b -= lr * db
        epoch_loss = loss_sum / n
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(f"non-finite loss {epoch_loss} during SGD")
        history.append(float(epoch_loss))
    return history


def random_job(k, spec, n, cfg, soft=False):
    """Model k of a stack: its own data, targets, initial weights and shuffle stream."""
    data_rng = np.random.default_rng(1000 + k)
    C = spec.layer_widths[-1]
    X = data_rng.normal(size=(n, spec.layer_widths[0]))
    if soft:
        T = data_rng.dirichlet(np.ones(C), size=n)
    else:
        T = np.eye(C)[data_rng.integers(0, C, n)]
    rng = np.random.default_rng(k)
    return TrainJob(init_weights(spec, rng), X, T, rng, spec, cfg, identity=f"model-{k}")


class TestStackedSGD:
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize(
        "activation, cfg, soft",
        [
            ("relu", TrainConfig(epochs=4, batch_size=16), False),
            ("tanh", TrainConfig(epochs=4, batch_size=16), False),
            ("relu", TrainConfig(epochs=4, batch_size=16, loss="distillation-kl"), True),
            ("tanh", TrainConfig(epochs=4, batch_size=16, weight_decay=0.01), False),
            ("relu", TrainConfig(epochs=3, batch_size=32, weight_decay=0.001), True),
        ],
    )
    @pytest.mark.parametrize("n", [64, 70])
    def test_bit_identical_to_one_at_a_time(self, K, activation, cfg, soft, n):
        spec = MLPSpec((5, 12, 7, 4), activation=activation)
        jobs = [random_job(k, spec, n, cfg, soft) for k in range(K)]
        expected = []
        for k in range(K):
            ref = random_job(k, spec, n, cfg, soft)
            weights = [(W.copy(), b.copy()) for W, b in ref.weights]
            history = reference_sgd_epochs(weights, activation, ref.X, ref.T, cfg, ref.rng)
            expected.append((weights, history))

        weights = [
            tuple(np.stack([job.weights[layer][part] for job in jobs]) for part in (0, 1))
            for layer in range(3)
        ]
        X = np.stack([job.X for job in jobs])
        T = np.stack([job.T for job in jobs])
        histories = _sgd_epochs(
            weights, activation, X, T, cfg, [job.rng for job in jobs], ["a", "b", "c"]
        )
        assert len(histories) == K
        for k, (ref_weights, ref_history) in enumerate(expected):
            assert histories[k] == ref_history
            for (W, b), (We, be) in zip(weights, ref_weights):
                assert W[k].tobytes() == We.tobytes()
                assert b[k].tobytes() == be.tobytes()

    def test_fit_stack_matches_train(self, quick_task):
        train_ds, _ = quick_task
        one = train(train_ds, QUICK_ARCH, QUICK_CFG, identity="one")
        other = random_job(9, QUICK_ARCH, len(train_ds), QUICK_CFG)
        stacked, _ = fit_stack([train_job(train_ds, QUICK_ARCH, QUICK_CFG, identity="one"), other])
        assert stacked.identity == "one"
        assert stacked.train_loss == one.train_loss
        for (W, b), (We, be) in zip(stacked.weights, one.weights):
            assert W.tobytes() == We.tobytes() and b.tobytes() == be.tobytes()

    def test_one_diverging_model_raises_naming_it(self):
        spec = MLPSpec((5, 8, 3))
        cfg = TrainConfig(epochs=3, batch_size=16)
        jobs = [random_job(k, spec, 40, cfg) for k in range(3)]
        jobs[1].X = jobs[1].X * 1e300
        with pytest.raises(TrainingDiverged, match="model-1"), np.errstate(all="ignore"):
            fit_stack(jobs)

    @pytest.mark.parametrize(
        "change",
        [
            lambda job: TrainJob(job.weights[:1], job.X, job.T, job.rng,
                                 MLPSpec((5, 8, 3), "tanh"), job.cfg),
            lambda job: TrainJob(job.weights, job.X[:30], job.T[:30], job.rng, job.spec, job.cfg),
            lambda job: TrainJob(job.weights, job.X, job.T, job.rng, job.spec,
                                 TrainConfig(epochs=4, batch_size=16)),
            lambda job: TrainJob(job.weights, job.X, job.T, job.rng, job.spec,
                                 TrainConfig(epochs=3, batch_size=8)),
        ],
        ids=["activation", "n", "epochs", "batch_size"],
    )
    def test_mismatched_jobs_rejected(self, change):
        spec = MLPSpec((5, 8, 3))
        cfg = TrainConfig(epochs=3, batch_size=16)
        jobs = [random_job(k, spec, 40, cfg) for k in range(2)]
        with pytest.raises(ValueError, match="cannot stack"):
            fit_stack([jobs[0], change(jobs[1])])

    def test_loss_alone_may_differ(self):
        spec = MLPSpec((5, 8, 3))
        cfg = TrainConfig(epochs=2, batch_size=16)
        a = random_job(0, spec, 40, cfg)
        b = random_job(1, spec, 40, TrainConfig(epochs=2, batch_size=16, loss="distillation-kl"))
        assert len(fit_stack([a, b])) == 2


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


def weight_file(widths, act_code, tail):
    """A weight file of the given widths with an all-zero payload, then tail bytes."""
    n_params = sum(i * o + o for i, o in zip(widths[:-1], widths[1:]))
    head = b"MPW1" + struct.pack("<HHQI", 1, act_code, 0, len(widths))
    return head + struct.pack(f"<{len(widths)}I", *widths) + bytes(8 * n_params) + tail


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

    @given(data=st.one_of(
        st.binary(max_size=80),
        st.binary(max_size=80).map(lambda tail: b"MPW1" + tail),
        st.builds(weight_file, st.lists(st.integers(0, 3), max_size=4), st.integers(0, 2),
                  st.binary(max_size=10)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_load_or_raise_modelprint_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.mpw"
            path.write_bytes(data)
            try:
                model = load_weights(path)
            except ModelprintError:
                return
        assert isinstance(model, MLPClassifier)
        assert [W.shape[0] for W, _ in model.weights] == list(model.spec.layer_widths[:-1])
