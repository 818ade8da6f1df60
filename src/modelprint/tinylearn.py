"""Self-contained trainable classifiers and synthetic tasks.

Small multilayer perceptrons with hand-rolled gradients, trained by
plain SGD with deterministic, seed-keyed shuffling, plus three families
of synthetic classification tasks (blobs, moons, rings).  Everything is
bit-reproducible from its seeds; there is no adaptive-optimizer state.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import Access, Classifier, LabeledDataset, one_hot, softmax
from .errors import (
    CorruptWeights,
    IncompatibleTask,
    InfeasibleTask,
    TrainingDiverged,
)

ACTIVATIONS = ("relu", "tanh")
LOSSES = ("cross-entropy", "distillation-kl")

# Most float64 values one task's arrays or one model's parameters may hold
# (512 MiB); a spec above it is refused before anything is allocated.
MAX_VALUES = 2**26

_BLOB_RADIUS = 3.0
_RING_GAP = 1.2
_MOON_NOISE = 0.2
_RING_NOISE = 0.15


@dataclass(frozen=True)
class MLPSpec:
    """Architecture of a small MLP: input dim, hidden widths, output classes."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("need at least one hidden layer: (d, hidden..., C)")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.layer_widths[-1] < 2:
            raise ValueError("output width (number of classes) must be >= 2")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.n_params > MAX_VALUES:
            raise ValueError(f"layer widths {self.layer_widths} hold {self.n_params} "
                             f"parameters, more than {MAX_VALUES}")

    @property
    def n_params(self) -> int:
        widths = self.layer_widths
        return sum(i * o + o for i, o in zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    learning_rate: float = 0.05
    batch_size: int = 64
    weight_decay: float = 0.0
    loss: str = "cross-entropy"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """A synthetic classification task.

    ``seed`` controls the data draw (points, label noise).  ``concept_seed``
    controls the task geometry (blob directions, moon rotation, ring
    permutation), so two specs sharing a concept_seed describe the same
    underlying concept sampled independently.  ``noise_scale`` scales the
    within-class spread; 1.0 gives moderately overlapping classes so that
    trained models keep a nonzero error rate.
    """

    family: str
    num_classes: int
    dim: int
    n_train: int
    n_test: int
    label_noise: float = 0.1
    noise_scale: float = 1.0
    seed: int = 0
    concept_seed: int = 0

    def __post_init__(self):
        if self.family not in ("blobs", "moons", "rings"):
            raise ValueError(f"unknown task family {self.family!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        n_values = self.dim * (self.n_train + self.n_test)
        if n_values > MAX_VALUES:
            raise ValueError(f"dim x (n_train + n_test) = {n_values} values, more than {MAX_VALUES}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError("label_noise must lie in [0, 0.5)")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")
        if self.seed < 0 or self.concept_seed < 0:
            raise ValueError(f"seeds must be >= 0, got {self.seed} and {self.concept_seed}")


def _blob_centers(spec: SyntheticTaskSpec) -> np.ndarray:
    # orthonormal class directions scaled to a fixed radius; at most
    # `dim` mutually orthogonal directions exist
    if spec.num_classes > spec.dim:
        raise InfeasibleTask(
            f"blobs supports at most dim={spec.dim} classes, got {spec.num_classes}"
        )
    rng = np.random.default_rng(spec.concept_seed)
    G = rng.standard_normal((spec.dim, spec.num_classes))
    Q, _ = np.linalg.qr(G)
    return _BLOB_RADIUS * Q.T  # (C, d)


def _sample_family(spec: SyntheticTaskSpec, rng: np.random.Generator, n: int):
    C, d = spec.num_classes, spec.dim
    if spec.family == "blobs":
        centers = _blob_centers(spec)
        k = rng.integers(0, C, n)
        X = centers[k] + spec.noise_scale * rng.standard_normal((n, d))
        return X, k + 1

    if d < 2:
        raise InfeasibleTask(f"{spec.family} needs dim >= 2, got {d}")
    concept_rng = np.random.default_rng(spec.concept_seed)

    if spec.family == "moons":
        if C != 2:
            raise InfeasibleTask(f"moons represents exactly 2 classes, got {C}")
        phi = concept_rng.uniform(0.0, 2.0 * np.pi)
        k = rng.integers(0, 2, n)
        t = rng.uniform(0.0, np.pi, n)
        sx = np.where(k == 0, np.cos(t), 1.0 - np.cos(t))
        sy = np.where(k == 0, np.sin(t), 0.5 - np.sin(t))
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        signal = np.stack([sx, sy], axis=1) @ rot.T
        X = _MOON_NOISE * spec.noise_scale * rng.standard_normal((n, d))
        X[:, :2] += signal
        return X, k + 1

    # rings: concentric circles; the class -> radius assignment is the concept
    perm = concept_rng.permutation(C)
    radii = 1.0 + _RING_GAP * perm
    k = rng.integers(0, C, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    X = _RING_NOISE * spec.noise_scale * rng.standard_normal((n, d))
    X[:, 0] += radii[k] * np.cos(theta)
    X[:, 1] += radii[k] * np.sin(theta)
    return X, k + 1


def generate_task(spec: SyntheticTaskSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Draw the (train, test) datasets for a synthetic task.

    Deterministic given the spec.  Exactly ``floor(label_noise * n_train)``
    training labels are flipped, each to a uniformly chosen other class;
    test labels stay clean.
    """
    rng = np.random.default_rng(spec.seed)
    X_train, y_train = _sample_family(spec, rng, spec.n_train)
    X_test, y_test = _sample_family(spec, rng, spec.n_test)

    n_flip = int(spec.label_noise * spec.n_train)
    if n_flip:
        idx = rng.choice(spec.n_train, n_flip, replace=False)
        offsets = rng.integers(1, spec.num_classes, n_flip)
        y_train[idx] = (y_train[idx] - 1 + offsets) % spec.num_classes + 1

    train = LabeledDataset(X_train, y_train, spec.num_classes)
    return train, LabeledDataset(X_test, y_test, spec.num_classes)


# ---------------------------------------------------------------------------
# MLP forward/backward
# ---------------------------------------------------------------------------


def _act(name: str, Z: np.ndarray) -> np.ndarray:
    """Apply the activation to ``Z`` in place and return it."""
    return np.maximum(Z, 0.0, out=Z) if name == "relu" else np.tanh(Z, out=Z)


def _act_grad(name: str, g: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Multiply ``g`` in place by the activation's derivative at output ``A``.

    For tanh ``A`` is overwritten with ``1 - A * A``; for relu the bool mask
    multiplies as 1.0/0.0, the same bits as a float64 mask.
    """
    if name == "relu":
        return np.multiply(g, A > 0.0, out=g)
    np.multiply(A, A, out=A)
    np.subtract(1.0, A, out=A)
    return np.multiply(g, A, out=g)


def _affine(A: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    Z = A @ W
    Z += b[..., None, :]
    return Z


def _forward(weights, activation: str, X: np.ndarray):
    """Activations per layer plus final logits; works on one model or a stack."""
    A = [X]
    for W, b in weights[:-1]:
        A.append(_act(activation, _affine(A[-1], W, b)))
    W, b = weights[-1]
    return A, _affine(A[-1], W, b)


def init_layer(fan_in: int, fan_out: int, rng: np.random.Generator):
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)), np.zeros(fan_out)


def init_weights(spec: MLPSpec, rng: np.random.Generator):
    """``init_layer`` for every layer, in order."""
    widths = spec.layer_widths
    return [init_layer(i, o, rng) for i, o in zip(widths[:-1], widths[1:])]


def _sgd_epochs(weights, activation: str, X, T, cfg: TrainConfig, rngs, names):
    """Run ``cfg.epochs`` of SGD in place on K stacked models; return K loss histories.

    Layers are ``(W (K, i, o), b (K, o))``, ``X`` is ``(K, n, d)``, ``T`` holds ``(K, n, C)``
    target distributions and ``rngs[k]`` alone shuffles model k.  Products are one
    BLAS call per model and reductions stay within a model, so each model is
    bit-identical to training it alone.  The loss is mean cross-entropy of the
    targets (for distillation, KL plus the constant target entropy: same gradients).

    In place: each batch does the floating-point operations of the plain step
    (``P = softmax(A @ W + b)``, ``g = (P - T) / m``, ``W -= lr * (A.T @ g + wd * W)``)
    in the same order on the same operands, but writes each elementwise result
    into an array it already holds (a product, the softmax, the loss terms, the
    logit gradient) instead of a new temporary, and takes the ``W.T`` views once
    per fit.  Each rewrite keeps the bits: ``a -= x`` is the IEEE operation of
    ``a += -x``; a bool mask multiplies as 1.0/0.0 exactly as its float64 copy
    does; and ``wd * W`` is left out when ``wd`` is 0, since for finite ``W``,
    ``d + 0 * W`` differs from ``d`` only where ``d`` is -0.0 and ``W`` is +0.0
    or positive, and such a ``W`` minus a zero of either sign is ``W`` again.
    """
    K, n = X.shape[:2]
    lr, wd = cfg.learning_rate, cfg.weight_decay
    rows = np.arange(K)[:, None]
    W_T = [np.swapaxes(W, 1, 2) for W, _ in weights]
    history = []
    for _ in range(cfg.epochs):
        perms = np.stack([rng.permutation(n) for rng in rngs])
        Xp, Tp = X[rows, perms], T[rows, perms]
        loss_sum = np.zeros(K)
        for start in range(0, n, cfg.batch_size):
            Xb, Tb = Xp[:, start : start + cfg.batch_size], Tp[:, start : start + cfg.batch_size]
            A, logits = _forward(weights, activation, Xb)
            P = softmax(logits)
            L = np.maximum(P, 1e-300)
            np.log(L, out=L)
            L *= Tb
            loss_sum -= L.sum(axis=(1, 2))
            g = np.subtract(P, Tb, out=P)
            g /= Xb.shape[1]
            for layer in reversed(range(len(weights))):
                W, b = weights[layer]
                dW = np.swapaxes(A[layer], 1, 2) @ g
                if wd:
                    dW += wd * W
                db = g.sum(axis=1)
                if layer > 0:
                    g = _act_grad(activation, g @ W_T[layer], A[layer])
                dW *= lr
                W -= dW
                db *= lr
                b -= db
        epoch_loss = loss_sum / n
        if not np.isfinite(epoch_loss).all():
            k = int(np.argmin(np.isfinite(epoch_loss)))
            raise TrainingDiverged(f"non-finite loss {epoch_loss[k]} during SGD of {names[k]}")
        history.append(epoch_loss)
    return np.array(history).T.tolist()


class MLPClassifier(Classifier):
    """A trained MLP handle with full (gradient-level) access.

    Weights are stored read-only; derived models are built from copies so
    the source handle is never mutated.
    """

    def __init__(self, spec: MLPSpec, weights, identity=None, tag=None, train_loss=None):
        super().__init__(
            identity or f"mlp-{'x'.join(map(str, spec.layer_widths))}-s{spec.seed}",
            spec.layer_widths[-1],
            spec.layer_widths[0],
            Access.GRADIENTS,
            tag=tag,
        )
        self.spec = spec
        frozen = []
        for W, b in weights:
            W = np.array(W, dtype=np.float64)
            b = np.array(b, dtype=np.float64)
            W.setflags(write=False)
            b.setflags(write=False)
            frozen.append((W, b))
        self.weights = tuple(frozen)
        self.train_loss = tuple(train_loss) if train_loss is not None else ()

    def __setstate__(self, state):
        vars(self).update(state)  # fresh arrays, frozen in place: a constructor copy slowed scoring
        for array in (a for layer in self.weights for a in layer):
            array.setflags(write=False)

    @property
    def n_params(self) -> int:
        return self.spec.n_params

    def clone(self, identity: str, weights=None, tag=None) -> "MLPClassifier":
        """New handle sharing this architecture, with fresh weight copies."""
        return MLPClassifier(
            self.spec,
            weights if weights is not None else self.weights,
            identity=identity,
            tag=tag,
            train_loss=self.train_loss,
        )

    _stacks_blocks = True  # _forward and softmax broadcast over a leading block axis

    def _logits(self, X: np.ndarray) -> np.ndarray:
        _, logits = _forward(self.weights, self.spec.activation, X)
        return logits

    def _backprop_to_input(self, A, dlogits: np.ndarray) -> np.ndarray:
        """Input gradient of ``dlogits``, given ``_forward``'s activations ``A`` (consumed)."""
        g = dlogits
        for layer in reversed(range(len(self.weights))):
            W, _ = self.weights[layer]
            g = g @ W.T
            if layer > 0:
                _act_grad(self.spec.activation, g, A[layer])
        return g

    def _input_gradient(self, x: np.ndarray, label: int) -> np.ndarray:
        A, _ = _forward(self.weights, self.spec.activation, x.reshape(1, -1))
        return self._backprop_to_input(A, one_hot([label], self.num_classes))[0]

    def _xent_input_gradient(self, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        A, logits = _forward(self.weights, self.spec.activation, X)
        D = softmax(logits)  # a fresh array, so the reshape below is a view of it
        D.reshape(-1, self.num_classes)[np.arange(labels.size), labels.ravel() - 1] -= 1.0
        return self._backprop_to_input(A, D)

    # the benchmark's tracer patches this name on the class itself
    xent_input_gradient = Classifier.xent_input_gradient


class LinearClassifier(Classifier):
    """Softmax-linear model: logits = x @ W.T + b.

    Handy for closed-form oracle checks; the input gradient of logit ``c``
    is exactly the weight row ``W[c-1]``.
    """

    def __init__(self, W, b=None, identity: str = "linear", tag=None):
        W = np.asarray(W, dtype=np.float64)
        b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
        super().__init__(identity, W.shape[0], W.shape[1], Access.GRADIENTS, tag=tag)
        self.W = W
        self.b = b

    _stacks_blocks = True  # the product and softmax broadcast over a leading block axis

    def _logits(self, X: np.ndarray) -> np.ndarray:
        return X @ self.W.T + self.b

    def _input_gradient(self, x: np.ndarray, label: int) -> np.ndarray:
        return self.W[label - 1].copy()

    def _xent_input_gradient(self, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        D = self._probits(X)
        D.reshape(-1, self.num_classes)[np.arange(labels.size), labels.ravel() - 1] -= 1.0
        return D @ self.W

    # the benchmark's tracer patches this name on the class itself
    xent_input_gradient = Classifier.xent_input_gradient


@dataclass
class TrainJob:
    """One model's SGD run before fitting; ``rng`` shuffles its epochs, ``weights`` start it."""

    weights: list
    X: np.ndarray
    T: np.ndarray
    rng: np.random.Generator
    spec: MLPSpec
    cfg: TrainConfig
    identity: str | None = None
    tag: object = None


def fit_stack(jobs) -> list[MLPClassifier]:
    """Fit jobs as one stacked SGD pass; each model is bit-identical to fitting it alone.

    The jobs must share layer widths, activation, data shapes and ``TrainConfig``
    apart from ``loss``, which only says where the targets came from.
    """
    shapes = [(job.spec.layer_widths, job.spec.activation, replace(job.cfg, loss=LOSSES[0]),
               job.X.shape, job.T.shape) for job in jobs]
    for shape in shapes:
        if shape != shapes[0]:
            raise ValueError(f"cannot stack {shape} with {shapes[0]}")
    # per layer, the jobs' (W, b) pairs become one (W (K, i, o), b (K, o)) pair
    weights = [tuple(map(np.stack, zip(*layer))) for layer in zip(*[job.weights for job in jobs])]
    histories = _sgd_epochs(
        weights, jobs[0].spec.activation, np.stack([job.X for job in jobs]),
        np.stack([job.T for job in jobs]), jobs[0].cfg, [job.rng for job in jobs],
        [job.identity or f"model {k}" for k, job in enumerate(jobs)],
    )
    # ``MLPClassifier`` copies its views into the stacked arrays
    return [
        MLPClassifier(job.spec, [(W[k], b[k]) for W, b in weights], job.identity, job.tag, history)
        for k, (job, history) in enumerate(zip(jobs, histories))
    ]


def fitted(job_fn):
    """Builds ``job_fn``'s job and fits it alone; named without the ``_job`` suffix."""
    @functools.wraps(job_fn)
    def fit(*args, **kwargs) -> MLPClassifier:
        return fit_stack([job_fn(*args, **kwargs)])[0]
    fit.__name__ = fit.__qualname__ = job_fn.__name__.removesuffix("_job")
    return fit


def make_job(weights, dataset: LabeledDataset, spec: MLPSpec, cfg: TrainConfig, rng,
             identity=None, tag=None, soft_targets=None) -> TrainJob:
    """A job fitting ``spec``-shaped ``weights`` to ``dataset``, once they match."""
    widths = spec.layer_widths
    if (dataset.dim, dataset.num_classes) != (widths[0], widths[-1]):
        raise IncompatibleTask(f"a dataset of dimension {dataset.dim} with "
                               f"{dataset.num_classes} classes does not fit layer widths {widths}")
    n, C = len(dataset), dataset.num_classes
    if cfg.loss == "distillation-kl":
        if soft_targets is None:
            raise ValueError("distillation-kl loss needs soft_targets")
        T = np.asarray(soft_targets, dtype=np.float64)
        if T.shape != (n, C):
            raise ValueError(f"soft_targets must have shape ({n}, {C}), got {T.shape}")
    else:
        T = one_hot(dataset.labels, C)
    return TrainJob(weights, dataset.points, T, rng, spec, cfg, identity, tag)


def train_job(
    dataset: LabeledDataset,
    arch: MLPSpec,
    cfg: TrainConfig = TrainConfig(),
    soft_targets=None,
    identity: str | None = None,
    tag=None,
) -> TrainJob:
    """Train an MLP (``train`` fits this job); deterministic given (dataset, arch, cfg).

    ``arch.seed`` drives both initialization and epoch shuffling.  With
    ``loss="distillation-kl"`` the per-point target distributions must be
    supplied via ``soft_targets`` (shape ``(n, C)``); otherwise targets
    are one-hot on the dataset labels.
    """
    rng = np.random.default_rng(arch.seed)
    return make_job(init_weights(arch, rng), dataset, arch, cfg, rng, identity, tag, soft_targets)


def continue_training_job(
    model: MLPClassifier,
    dataset: LabeledDataset,
    cfg: TrainConfig,
    seed: int,
    identity: str,
    tag=None,
) -> TrainJob:
    """More SGD epochs from a model's weights (``continue_training`` fits this job)."""
    rng = np.random.default_rng(seed)
    return make_job(list(model.weights), dataset, model.spec, cfg, rng, identity, tag)


train = fitted(train_job)
continue_training = fitted(continue_training_job)


# ---------------------------------------------------------------------------
# Weight file format: magic, version, activation, seed, widths, then
# little-endian float64 W and b arrays in layer order.
# ---------------------------------------------------------------------------

_MAGIC = b"MPW1"
_VERSION = 1
_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


def save_weights(model: MLPClassifier, path) -> None:
    path = Path(path)
    widths = model.spec.layer_widths
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<HHQI", _VERSION, _ACT_CODES[model.spec.activation],
                model.spec.seed % 2**64, len(widths),
            )
        )
        fh.write(struct.pack(f"<{len(widths)}I", *widths))
        for W, b in model.weights:
            fh.write(W.astype("<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())


def load_weights(path, identity: str | None = None, tag=None) -> MLPClassifier:
    """Inverse of ``save_weights``; any other byte string raises ``CorruptWeights``."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != _MAGIC:
        raise CorruptWeights(f"{path}: not a model weight file")
    offset = 4 + struct.calcsize("<HHQI")
    if len(raw) < offset:
        raise CorruptWeights(f"{path}: header is {len(raw)} bytes, needs {offset}")
    version, act_code, seed, n_widths = struct.unpack_from("<HHQI", raw, 4)
    if version != _VERSION:
        raise CorruptWeights(f"{path}: unsupported weight file version {version}")
    if act_code not in _ACT_NAMES:
        raise CorruptWeights(f"{path}: unknown activation code {act_code}")
    if len(raw) < offset + 4 * n_widths:
        raise CorruptWeights(f"{path}: header ends before its {n_widths} layer widths")
    widths = struct.unpack_from(f"<{n_widths}I", raw, offset)
    offset += 4 * n_widths
    try:
        spec = MLPSpec(widths, _ACT_NAMES[act_code], seed=seed)
    except ValueError as err:
        raise CorruptWeights(f"{path}: {err}") from err
    n_bytes = 8 * spec.n_params
    if len(raw) - offset != n_bytes:
        raise CorruptWeights(
            f"{path}: payload is {len(raw) - offset} bytes, widths {widths} need {n_bytes}"
        )
    weights = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        W = np.frombuffer(raw, "<f8", fan_in * fan_out, offset).reshape(fan_in, fan_out)
        offset += 8 * fan_in * fan_out
        b = np.frombuffer(raw, "<f8", fan_out, offset)
        offset += 8 * fan_out
        weights.append((W, b))
    return MLPClassifier(spec, weights, identity=identity, tag=tag)

