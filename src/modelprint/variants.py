"""Factory of stolen and unrelated models.

Implements the stealing routes (direct leak, label/probit/adversarial
extraction) and the weight-space obfuscations (pruning, quantization,
finetuning, transfer) plus output-noise wrappers.  Every operation
returns a fresh handle carrying a provenance tag; source models are
never mutated.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import Access, Classifier, LabeledDataset, from_record
from .errors import (
    DegeneratePrune,
    DegenerateQuantization,
    EmptyQueryPool,
    IncompatibleTask,
)
from .samplers import (
    AdversarialSampler,
    projected_gradient_ascent,  # noqa: F401  (patched by the benchmark's tracer)
)
from .tinylearn import (
    MLPClassifier,
    MLPSpec,
    TrainConfig,
    TrainJob,
    continue_training,  # noqa: F401  (patched by the benchmark's tracer)
    continue_training_job,
    fitted,
    init_layer,
    make_job,
    train,
    train_job,
)

# Every tag param ``harness._build_stolen`` reads, checked before any training: key -> (type,
# wording, range check, range wording, required); ``index`` only names or tells tags apart.
# The SGD tags' ``epochs`` and ``learning_rate`` are a ``TrainConfig`` over ``SGD_TAG_DEFAULTS``.
_INDEX = (numbers.Integral, "an integer", lambda i: i >= 0, ">= 0", False)
_COUNT = (numbers.Integral, "an integer", lambda n: n >= 1, ">= 1", False)
TAG_PARAMS = {
    "same": {"index": _INDEX},
    "prune": {"fraction": (numbers.Real, "a numeric", lambda f: 0 <= f < 1, "in [0, 1)", True)},
    "quantize": {"bits": (numbers.Integral, "an integer", lambda b: b >= 2, ">= 2", True)},
    "finetune": {"index": _INDEX},
    "transfer": {},
    "probit_extraction": {"pool_size": _COUNT},
    "label_extraction": {"pool_size": _COUNT},
    "adversarial_label_extraction": {"pool_size": _COUNT, "n_adversarial": _COUNT},
}
STEALING_METHODS = (*TAG_PARAMS, "unrelated")

# What a weight-space copy's identity adds to its victim's, as ``harness._build_stolen``,
# ``prune`` and ``quantize`` name it; unlike a trained model's, it holds no seed.
COPY_NAMES = {
    "same": lambda params: f"#same{params.get('index', 0)}",
    "prune": lambda params: f"#prune{params['fraction']:g}",
    "quantize": lambda params: f"#q{params['bits']}",
}

# The SGD run of a finetune or transfer that is given no ``TrainConfig``
SGD_TAG_DEFAULTS = {"finetune": {"epochs": 5, "learning_rate": 0.01},
                    "transfer": {"epochs": 20, "learning_rate": 0.02}}

EXTRACTION_MODES = {
    "labels": "label_extraction",
    "probits": "probit_extraction",
    "adversarial_labels": "adversarial_label_extraction",
}


@dataclass(frozen=True)
class TaskTag:
    """Provenance of a benchmark model: how it was produced, with parameters."""

    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in STEALING_METHODS:
            raise ValueError(f"unknown stealing method {self.method!r}")
        object.__setattr__(self, "params", dict(self.params))

    @property
    def is_positive(self) -> bool:
        return self.method != "unrelated"

    def to_record(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_record(rec: dict, where: str = "") -> "TaskTag":
        return from_record(TaskTag, rec, where)


def _require_mlp(h: Classifier) -> MLPClassifier:
    if not isinstance(h, MLPClassifier):
        raise IncompatibleTask(
            f"{h.identity}: weight-space variants need an in-process MLP handle"
        )
    return h


def same_copy(h: MLPClassifier, identity: str | None = None) -> MLPClassifier:
    """A verbatim copy of the victim (direct model leak)."""
    h = _require_mlp(h)
    return h.clone(identity or f"{h.identity}#same", tag=TaskTag("same"))


def prune(h: Classifier, fraction: float, seed: int = 0) -> MLPClassifier:
    """Zero out the globally smallest-magnitude weights.

    Global magnitude ranking across all weight matrices (biases are kept),
    ties broken by flat index.  ``seed`` only enters the provenance tag;
    the operation itself is deterministic.
    """
    h = _require_mlp(h)
    if not 0.0 <= fraction < 1.0:
        raise DegeneratePrune(f"prune fraction must lie in [0, 1), got {fraction}")
    mats = [W.copy() for W, _ in h.weights]
    flat = np.concatenate([np.abs(W).ravel() for W in mats])
    n_zero = int(fraction * flat.size)
    if n_zero:
        order = np.argsort(flat, kind="stable")
        kill = np.zeros(flat.size, dtype=bool)
        kill[order[:n_zero]] = True
        offset = 0
        for W in mats:
            W.ravel()[kill[offset : offset + W.size]] = 0.0
            offset += W.size
    tag = TaskTag("prune", {"fraction": float(fraction), "seed": int(seed)})
    weights = [(W, b.copy()) for W, (_, b) in zip(mats, h.weights)]
    return h.clone(h.identity + COPY_NAMES["prune"](tag.params), weights=weights, tag=tag)


def quantize(h: Classifier, bits: int) -> MLPClassifier:
    """Round each weight to one of 2^bits uniform levels per layer.

    The grid spans [-w_max, +w_max] of the layer, so the level set is
    symmetric about zero.  Biases are kept at full precision.
    """
    h = _require_mlp(h)
    if bits < 2:
        raise DegenerateQuantization(f"need at least 2 bits, got {bits}")
    levels = 2 ** int(bits)
    weights = []
    for W, b in h.weights:
        wmax = np.abs(W).max()
        if wmax == 0.0:
            weights.append((W.copy(), b.copy()))
            continue
        delta = 2.0 * wmax / (levels - 1)
        q = np.clip(np.round((W + wmax) / delta), 0, levels - 1) * delta - wmax
        weights.append((q, b.copy()))
    tag = TaskTag("quantize", {"bits": int(bits)})
    return h.clone(h.identity + COPY_NAMES["quantize"](tag.params), weights=weights, tag=tag)


def finetune_job(
    h: Classifier,
    data: LabeledDataset,
    cfg: TrainConfig | None = None,
    seed: int = 0,
) -> TrainJob:
    """A few more SGD epochs from the victim's weights (``finetune`` fits this job)."""
    h = _require_mlp(h)
    cfg = cfg or TrainConfig(**SGD_TAG_DEFAULTS["finetune"])
    tag = TaskTag("finetune", {"epochs": cfg.epochs, "seed": int(seed)})
    return continue_training_job(h, data, cfg, seed, identity=f"{h.identity}#ft{seed}", tag=tag)


def transfer_job(
    h: Classifier,
    new_task_data: LabeledDataset,
    cfg: TrainConfig | None = None,
    seed: int = 0,
) -> TrainJob:
    """Reinitialize the output layer, then train on another task (``transfer`` fits this job)."""
    h = _require_mlp(h)
    cfg = cfg or TrainConfig(**SGD_TAG_DEFAULTS["transfer"])
    widths = h.spec.layer_widths[:-1] + (new_task_data.num_classes,)
    spec = MLPSpec(widths, h.spec.activation, seed=int(seed))
    rng = np.random.default_rng(seed)
    weights = list(h.weights[:-1]) + [init_layer(widths[-2], widths[-1], rng)]
    tag = TaskTag("transfer", {"epochs": cfg.epochs, "seed": int(seed)})
    return make_job(weights, new_task_data, spec, cfg, rng, f"{h.identity}#tr{seed}", tag)


def extract_job(
    h_victim: Classifier,
    query_pool: LabeledDataset,
    arch: MLPSpec,
    cfg: TrainConfig,
    mode: str = "labels",
    seed: int = 0,
    n_adversarial: int | None = None,
) -> TrainJob:
    """Train a substitute model from the victim's answers on a query pool.

    ``labels`` fits a fresh model to the victim's labels with
    cross-entropy; ``probits`` distills the victim's probit vectors with
    a KL objective; ``adversarial_labels`` first trains an interim model
    on the victim's labels, generates gradient-ascent queries against
    that interim model, labels them with the victim, and finishes
    training on the augmented pool: the job is that run (``extract`` fits it).
    The attack is ``AdversarialSampler()``'s default box on the query pool.
    """
    if mode not in EXTRACTION_MODES:
        raise ValueError(f"mode must be one of {sorted(EXTRACTION_MODES)}")
    if len(query_pool) == 0:
        raise EmptyQueryPool("extraction needs a nonempty query pool")
    method = EXTRACTION_MODES[mode]
    arch = replace(arch, seed=int(seed))
    identity = f"{h_victim.identity}#{mode}-x{seed}"
    X = query_pool.points
    victim_labels = h_victim.predict(X)
    tag = TaskTag(method, {"pool_size": len(query_pool), "seed": int(seed)})
    ds = LabeledDataset(X, victim_labels, h_victim.num_classes, np.full(len(X), "train"))

    if mode == "probits":
        kl_cfg = replace(cfg, loss="distillation-kl")
        targets = h_victim.probits(X)
        return train_job(ds, arch, kl_cfg, soft_targets=targets, identity=identity, tag=tag)
    if mode == "labels":
        return train_job(ds, arch, cfg, identity=identity, tag=tag)

    # adversarial label extraction: warmup, attack own interim model,
    # ask the victim for labels on the attack points, finish training
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
    U = AdversarialSampler().perturb(interim, query_pool, X[idx])
    aug_X = np.concatenate([X, U], axis=0)
    aug_y = np.concatenate([victim_labels, h_victim.predict(U)])
    aug = LabeledDataset(
        aug_X, aug_y, h_victim.num_classes, np.full(len(aug_X), "train")
    )
    rest_cfg = replace(cfg, epochs=max(1, cfg.epochs - warmup))
    tag = TaskTag(
        method,
        {"pool_size": len(query_pool), "n_adversarial": int(n_adv), "seed": int(seed)},
    )
    return continue_training_job(interim, aug, rest_cfg, s_rest, identity, tag=tag)


def unrelated_job(
    task_data: LabeledDataset,
    arch: MLPSpec,
    cfg: TrainConfig,
    seed: int = 0,
    identity: str | None = None,
) -> TrainJob:
    """An independently trained model, a negative-pair source (``unrelated`` fits this job)."""
    arch = replace(arch, seed=int(seed))
    tag = TaskTag("unrelated", {"seed": int(seed)})
    return train_job(task_data, arch, cfg, identity=identity or f"unrelated-{seed}", tag=tag)


finetune = fitted(finetune_job)
transfer = fitted(transfer_job)
extract = fitted(extract_job)
unrelated = fitted(unrelated_job)


# ---------------------------------------------------------------------------
# Output-noise obfuscation wrappers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopKOnly:
    """Expose only the top-k labels; never changes the argmax."""

    k: int


@dataclass(frozen=True)
class ProbitPerturbation:
    """Multiplicative per-query probit noise, deterministic per input point."""

    scale: float
    seed: int = 0


class OutputNoiseWrapper(Classifier):
    """Restrict or perturb a model's outputs without touching its weights.

    Wrapped handles stay deterministic: the perturbation noise is keyed
    by a hash of the query point, so repeated queries agree.
    """

    def __init__(self, inner: Classifier, mode):
        if isinstance(mode, TopKOnly):
            if not 1 <= mode.k <= inner.num_classes:
                raise ValueError(f"k must lie in 1..{inner.num_classes}")
            access, limit = Access.TOP_K, mode.k
        elif isinstance(mode, ProbitPerturbation):
            access, limit = Access.PROBITS, None
        else:
            raise ValueError(f"unknown output-noise mode {mode!r}")
        super().__init__(
            f"{inner.identity}#noise",
            inner.num_classes,
            inner.input_dim,
            access,
            top_k_limit=limit,
            tag=inner.tag,
        )
        self.inner = inner
        self.mode = mode

    def _predict(self, X: np.ndarray) -> np.ndarray:
        if isinstance(self.mode, TopKOnly):
            return self.inner.predict(X)
        return super()._predict(X)

    def _top_k(self, X: np.ndarray, k: int) -> np.ndarray:
        if isinstance(self.mode, TopKOnly):
            return self.inner.top_k(X, k)
        return super()._top_k(X, k)

    def _probits(self, X: np.ndarray) -> np.ndarray:
        P = self.inner.probits(X)
        out = np.empty_like(P)
        key = int(self.mode.seed).to_bytes(8, "little", signed=True)
        for i, (x, p) in enumerate(zip(X, P)):
            digest = hashlib.blake2b(x.tobytes(), digest_size=8, key=key).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "little"))
            noisy = p * np.exp(self.mode.scale * rng.standard_normal(p.size))
            out[i] = noisy / noisy.sum()
        return out
