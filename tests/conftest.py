import numpy as np
import pytest

import modelprint as mp
from modelprint.harness import default_benchmark_config
from modelprint.tinylearn import MLPSpec, SyntheticTaskSpec, TrainConfig

QUICK_TASK = SyntheticTaskSpec(
    family="blobs", num_classes=3, dim=4, n_train=200, n_test=300,
    label_noise=0.1, noise_scale=1.4, seed=7,
)
QUICK_ARCH = MLPSpec(layer_widths=(4, 16, 3), activation="relu", seed=3)
QUICK_CFG = TrainConfig(epochs=30, learning_rate=0.05, batch_size=32)


@pytest.fixture(scope="session")
def quick_task():
    return mp.generate_task(QUICK_TASK)


@pytest.fixture(scope="session")
def quick_model(quick_task):
    train, _ = quick_task
    return mp.train(train, QUICK_ARCH, QUICK_CFG, identity="quick")


@pytest.fixture(scope="session")
def quick_model_b(quick_task):
    train, _ = quick_task
    arch = MLPSpec(layer_widths=(4, 16, 3), activation="relu", seed=11)
    return mp.train(train, arch, QUICK_CFG, identity="quick-b")


@pytest.fixture(scope="session")
def mini_benchmark():
    """A small but structurally complete benchmark for harness tests."""
    config = mp.BenchmarkConfig(
        task=SyntheticTaskSpec(
            family="blobs", num_classes=3, dim=4, n_train=150, n_test=300,
            label_noise=0.1, noise_scale=1.2,
        ),
        arch=MLPSpec(layer_widths=(4, 16, 3)),
        train=TrainConfig(epochs=25, learning_rate=0.05, batch_size=32),
        n_victims=2,
        stolen=(
            mp.TaskTag("same"),
            mp.TaskTag("prune", {"fraction": 0.25}),
            mp.TaskTag("quantize", {"bits": 6}),
            mp.TaskTag("finetune", {"epochs": 5}),
            mp.TaskTag("label_extraction", {"pool_size": 100}),
        ),
        n_unrelated=3,
        seed=0,
    )
    return mp.build_benchmark(config)


@pytest.fixture(scope="session")
def desk_benchmark():
    """The default desk benchmark; shared by the acceptance suite."""
    return mp.build_benchmark(default_benchmark_config(seed=0))


def make_indexed_dataset(labels, num_classes):
    """Dataset whose points are 1-d indices 0..n-1; handy for constructed pairs."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    return mp.LabeledDataset(
        np.arange(n, dtype=np.float64).reshape(-1, 1),
        labels,
        num_classes,
        np.full(n, "test"),
    )


def indexed_classifier(labels, num_classes, identity="indexed"):
    """FunctionClassifier reading labels off the integer-valued first coordinate."""
    table = np.asarray(labels, dtype=np.int64)

    def fn(X):
        return table[X[:, 0].astype(np.int64)]

    return mp.FunctionClassifier(fn, num_classes, 1, identity=identity)


def nan_copy(model, identity=None):
    """A clone of an MLP with NaN first-layer weights, which a valid weight file can hold."""
    (W, b), *rest = model.weights
    weights = [(np.full_like(W, np.nan), b), *rest]
    return model.clone(identity or f"{model.identity}#nan", weights=weights)


def reference_cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """The scalar cosine distance that ``cosine_rows`` replaced, kept as its oracle."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if np.array_equal(u, v):
        return 0.0
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return max(0.0, float(1.0 - np.dot(u, v) / (nu * nv)))
