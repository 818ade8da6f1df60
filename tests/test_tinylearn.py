"""Tests for synthetic tasks and the hand-rolled MLP training stack."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.core import Access
from modelprint.errors import (
    AccessInsufficient,
    BadClass,
    CorruptWeights,
    InfeasibleTask,
    ModelprintError,
    NonFiniteAnswer,
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
    _forward,
    _sgd_epochs,
    fit_stack,
    generate_task,
    init_weights,
    load_weights,
    save_weights,
    softmax,
    train,
    train_job,
)

from conftest import QUICK_ARCH, QUICK_CFG, QUICK_TASK, nan_copy


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


def assert_stack_matches_reference(spec, cfg, n, K, soft, first=0):
    """``_sgd_epochs`` on jobs first..first+K-1 equals ``reference_sgd_epochs`` byte for byte."""
    ks = range(first, first + K)
    jobs = [random_job(k, spec, n, cfg, soft) for k in ks]
    expected = []
    for k in ks:
        ref = random_job(k, spec, n, cfg, soft)
        weights = [(W.copy(), b.copy()) for W, b in ref.weights]
        history = reference_sgd_epochs(weights, spec.activation, ref.X, ref.T, cfg, ref.rng)
        expected.append((weights, history))

    weights = [
        tuple(np.stack([job.weights[layer][part] for job in jobs]) for part in (0, 1))
        for layer in range(len(spec.layer_widths) - 1)
    ]
    X = np.stack([job.X for job in jobs])
    T = np.stack([job.T for job in jobs])
    histories = _sgd_epochs(
        weights, spec.activation, X, T, cfg, [job.rng for job in jobs], [job.identity for job in jobs]
    )
    assert len(histories) == K
    for k, (ref_weights, ref_history) in enumerate(expected):
        assert histories[k] == ref_history
        for (W, b), (We, be) in zip(weights, ref_weights):
            assert W[k].tobytes() == We.tobytes()
            assert b[k].tobytes() == be.tobytes()


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
        assert_stack_matches_reference(MLPSpec((5, 12, 7, 4), activation=activation), cfg, n, K, soft)

    @given(
        K=st.integers(1, 4),
        activation=st.sampled_from(["relu", "tanh"]),
        hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        classes=st.integers(2, 5),
        weight_decay=st.sampled_from([0.0, 0.001, 0.05]),
        soft=st.booleans(),
        batch_size=st.integers(1, 12),
        batches=st.integers(1, 4),
        remainder=st.integers(0, 11),
        epochs=st.integers(1, 3),
        first=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_stack_is_bit_identical_to_one_at_a_time(
        self, K, activation, hidden, classes, weight_decay, soft, batch_size, batches,
        remainder, epochs, first,
    ):
        spec = MLPSpec((3, *hidden, classes), activation=activation)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, weight_decay=weight_decay)
        n = batch_size * batches + remainder % batch_size
        assert_stack_matches_reference(spec, cfg, n, K, soft, first)

    def test_desk_shapes_are_bit_identical_to_one_at_a_time(self):
        cfg = TrainConfig(epochs=2, batch_size=32)
        assert_stack_matches_reference(MLPSpec((8, 48, 24, 4)), cfg, 400, 11, soft=False)

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


class TestInputsUnchanged:
    """The in-place arithmetic writes only into arrays it made itself."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_and_queries_leave_inputs_unchanged(self, activation):
        spec = MLPSpec((4, 9, 6, 3), activation=activation, seed=2)
        model = MLPClassifier(spec, init_weights(spec, np.random.default_rng(2)))
        weights = [(W.tobytes(), b.tobytes()) for W, b in model.weights]
        X = np.random.default_rng(0).normal(size=(7, 4))
        X_bytes = X.tobytes()
        labels = np.arange(7) % 3 + 1
        _, logits = _forward(model.weights, activation, X)
        logits_bytes = logits.tobytes()
        softmax(logits)
        assert logits.tobytes() == logits_bytes
        model.logits(X)
        model.probits(X)
        model.predict(X)
        model.xent_input_gradient(X, labels)
        model.input_gradient(X[0], 2)
        assert X.tobytes() == X_bytes
        assert [(W.tobytes(), b.tobytes()) for W, b in model.weights] == weights

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_fit_stack_leaves_jobs_unchanged(self, activation):
        spec = MLPSpec((5, 8, 3), activation=activation)
        cfg = TrainConfig(epochs=2, batch_size=16, weight_decay=0.01)
        jobs = [random_job(k, spec, 40, cfg, soft=k == 1) for k in range(2)]

        def snapshot():
            return [(job.X.tobytes(), job.T.tobytes(),
                     [(W.tobytes(), b.tobytes()) for W, b in job.weights]) for job in jobs]

        before = snapshot()
        fit_stack(jobs)
        assert snapshot() == before


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
        for model in (quick_model, LinearClassifier(rng.normal(size=(3, 4)))):
            fast = model.xent_input_gradient(X, labels)
            slow = xent_gradient_by_composition(model, X, labels)
            np.testing.assert_allclose(fast, slow, atol=1e-10)


def xent_gradient_by_composition(model, X, labels):
    """The per-class oracle: ``sum_c (p_c - 1[c=y]) * input_gradient(x, c)`` per point."""
    P = model.probits(X)
    grads = np.zeros_like(X)
    for i, (x, y) in enumerate(zip(X, labels)):
        coeff = P[i].copy()
        coeff[y - 1] -= 1.0
        for c in range(1, model.num_classes + 1):
            grads[i] += coeff[c - 1] * model.input_gradient(x, c)
    return grads


def gradient_handles():
    """An MLP and a linear model, both with 3 classes over 4 inputs."""
    spec = MLPSpec((4, 6, 3), seed=1)
    mlp = MLPClassifier(spec, init_weights(spec, np.random.default_rng(1)), identity="mlp")
    linear = LinearClassifier(np.arange(12.0).reshape(3, 4) / 10, identity="linear")
    return [mlp, linear]


# query name -> (access level it needs, the query on a gradient handle with label y)
QUERIES = {
    "logits": (Access.PROBITS, lambda model, y: model.logits(np.zeros((2, 4)))),
    "probits": (Access.PROBITS, lambda model, y: model.probits(np.zeros((2, 4)))),
    "input_gradient": (Access.GRADIENTS, lambda model, y: model.input_gradient(np.zeros(4), y)),
    "xent_input_gradient": (
        Access.GRADIENTS, lambda model, y: model.xent_input_gradient(np.zeros((2, 4)), [1, y])
    ),
}


class TestGradientQueryChecks:
    """Every query checks access, labels and finiteness in ``Classifier``, for every handle."""

    @pytest.mark.parametrize("kind", [0, 1], ids=["mlp", "linear"])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_handle_below_the_query_level_is_refused(self, kind, query):
        model = gradient_handles()[kind]
        level, ask = QUERIES[query]
        model.access = Access(level - 1)
        with pytest.raises(AccessInsufficient, match=f"needs {level.name} access"):
            ask(model, 1)

    @pytest.mark.parametrize("kind", [0, 1], ids=["mlp", "linear"])
    @pytest.mark.parametrize("query", ["input_gradient", "xent_input_gradient"])
    @pytest.mark.parametrize("label", [0, 4])
    def test_query_label_outside_one_to_c_is_bad_class(self, kind, query, label):
        with pytest.raises(BadClass, match=f"class index {label} out of range 1..3"):
            QUERIES[query][1](gradient_handles()[kind], label)

    @pytest.mark.parametrize("query", ["logits", "input_gradient", "xent_input_gradient"])
    def test_nan_weight_mlp_answer_is_non_finite(self, query):
        model = nan_copy(gradient_handles()[0])
        with pytest.raises(NonFiniteAnswer, match=r"mlp#nan: [a-z ]+ hold NaN or inf"):
            QUERIES[query][1](model, 1)

    def test_overflowing_gradient_is_non_finite_while_probits_are_finite(self):
        model = LinearClassifier([[-1.5e308], [1.5e308], [1.5e308]], identity="huge")
        assert np.isfinite(model.probits([[0.0]])).all()
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteAnswer, match="huge: input gradients hold NaN or inf"
        ):
            model.xent_input_gradient([[0.0]], [1])

    @pytest.mark.parametrize("model", gradient_handles(), ids=["mlp", "linear"])
    def test_labels_handle_is_refused(self, model):
        model.access = Access.LABELS
        with pytest.raises(AccessInsufficient, match="gradient queries"):
            model.xent_input_gradient(np.zeros((2, 4)), [1, 2])

    @pytest.mark.parametrize("model", gradient_handles(), ids=["mlp", "linear"])
    @pytest.mark.parametrize("label", [0, 4, -1])
    def test_label_outside_one_to_c_is_bad_class(self, model, label):
        with pytest.raises(BadClass, match=f"class index {label} out of range 1..3"):
            model.xent_input_gradient(np.zeros((3, 4)), [1, label, 2])


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
