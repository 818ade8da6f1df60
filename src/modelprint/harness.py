"""Benchmark construction, scheme evaluation, metrics, and reports.

A benchmark is a triplet: victim models, per-victim stolen models (each
carrying the tag of the stealing/obfuscation method that produced it),
and per-victim unrelated models.  Evaluation scores every pair, sweeps
thresholds into a ROC, and reports TPR at a capped FPR, averaged over
runs with independent seeds.

True/false positive rates weight victims equally: the per-victim flag
fraction is computed first and then averaged across victims, which is
not the same as pooling all pairs when pair counts differ.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import logging
import os
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
# Names marked F401 are unused here, but the benchmark's tracer patches them in this module.
from .core import Classifier, LabeledDataset, label_pair_stats, pair_stats  # noqa: F401
from .core import SPLITS, from_record, read_json, write_csv
from .errors import (
    EmptyPairSet,
    EmptyTaskList,
    ManifestError,
    ModelprintError,
    UnsavableModel,
)
from .schemes import FingerprintScheme, SchemeSpec
from .fingerprints import fingerprint_distance  # noqa: F401
from .tinylearn import (
    MLPClassifier,
    MLPSpec,
    SyntheticTaskSpec,
    TrainConfig,
    TrainJob,
    fit_stack,
    generate_task,
    load_weights,
    save_weights,
    train,  # noqa: F401
    train_job,
)
from .variants import (
    COPY_NAMES,
    EXTRACTION_MODES,
    SGD_TAG_DEFAULTS,
    TAG_PARAMS,
    TaskTag,
    extract,  # noqa: F401
    extract_job,
    finetune,  # noqa: F401
    finetune_job,
    prune,
    quantize,
    same_copy,
    transfer_job,
    unrelated,  # noqa: F401
    unrelated_job,
)

log = logging.getLogger(__name__)

# Seed-stream codes for the documented splitting scheme: every random
# choice is keyed by SeedSequence((root, stream, indices...)).
STREAM_VICTIM_TASK = 0
STREAM_VICTIM_MODEL = 1
STREAM_UNRELATED_TASK = 2
STREAM_UNRELATED_MODEL = 3
STREAM_STOLEN = 4
STREAM_QUERY = 5
STREAM_TRANSFER = 6
STREAM_POOL = 7


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from integer parts (root, stream, indices)."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(
        1, np.uint64
    )
    return int(state[0])


# ---------------------------------------------------------------------------
# Benchmark configuration and construction
# ---------------------------------------------------------------------------

DESK_TASK = SyntheticTaskSpec(
    family="blobs",
    num_classes=4,
    dim=8,
    n_train=400,
    n_test=1000,
    label_noise=0.1,
    noise_scale=1.2,
)
DESK_ARCH = MLPSpec(layer_widths=(8, 48, 24, 4), activation="relu")
DESK_TRAIN = TrainConfig(epochs=80, learning_rate=0.05, batch_size=32)


def _refuse_repeats(keys: list, what: str) -> None:
    """``ValueError`` naming the first key that ``keys`` holds twice."""
    if repeated := [key for key, n in Counter(keys).items() if n > 1]:
        raise ValueError(f"repeated {what} {repeated[0]!r}: two models would share an identity")


@dataclass(frozen=True)
class BenchmarkConfig:
    """Recipe for a benchmark triplet.

    ``stolen`` lists one tag per stolen model to build for every victim;
    tag params carry the method knobs (prune fraction, quantize bits,
    extraction pool size, ...).  Per-model seeds are derived from
    ``seed`` through the documented stream codes.
    """

    task: SyntheticTaskSpec = DESK_TASK
    arch: MLPSpec = DESK_ARCH
    train: TrainConfig = DESK_TRAIN
    n_victims: int = 5
    stolen: tuple[TaskTag, ...] = ()
    n_unrelated: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_victims < 1:
            raise ValueError(f"n_victims must be >= 1, got {self.n_victims}")
        if self.n_unrelated < 1:
            raise ValueError(f"n_unrelated must be >= 1, got {self.n_unrelated}")
        if self.train.loss != "cross-entropy":  # victims and unrelated models fit labels
            raise ValueError(f"train.loss must be 'cross-entropy', got {self.train.loss!r}")
        for tag in self.stolen:
            if tag.method not in TAG_PARAMS:
                raise ValueError(f"no stolen model is built by method {tag.method!r}")
            rules = TAG_PARAMS[tag.method]
            for key in tag.params:
                if key not in rules and key not in SGD_TAG_DEFAULTS.get(tag.method, {}):
                    raise ValueError(f"{tag.method} tag takes no {key!r} param")
            for key, (kind, what, in_range, bound, required) in rules.items():
                if key not in tag.params and not required:
                    continue
                value = tag.params.get(key)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{tag.method} tag needs {what} {key!r}, got {value!r}")
                if not in_range(value):
                    raise ValueError(f"{tag.method} tag needs {key!r} {bound}, got {value!r}")
            _stolen_train(tag, self)
        _refuse_repeats([COPY_NAMES[tag.method](tag.params) for tag in self.stolen
                         if tag.method in COPY_NAMES], "stolen model name")

    def to_record(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_record(rec: dict) -> "BenchmarkConfig":
        try:
            return from_record(
                BenchmarkConfig, rec, task=partial(from_record, SyntheticTaskSpec),
                arch=partial(from_record, MLPSpec), train=partial(from_record, TrainConfig),
                stolen=lambda tags, where: tuple(TaskTag.from_record(t, where) for t in tags),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ManifestError(f"invalid benchmark config: {err}") from err


def default_benchmark_config(seed: int = 0, **overrides) -> BenchmarkConfig:
    """The desk benchmark: 5 victims, 5 stolen per task, 10 unrelated each."""
    tags: list[TaskTag] = []
    tags += [TaskTag("same", {"index": i}) for i in range(5)]
    tags += [TaskTag("prune", {"fraction": f}) for f in (0.05, 0.15, 0.25, 0.35, 0.45)]
    tags += [TaskTag("quantize", {"bits": b}) for b in (6, 7, 8, 9, 10)]
    tags += [TaskTag("finetune", {"epochs": 5, "index": i}) for i in range(5)]
    tags += [
        TaskTag("probit_extraction", {"pool_size": p})
        for p in (60, 100, 160, 250, 400)
    ]
    tags += [
        TaskTag("label_extraction", {"pool_size": p})
        for p in (60, 100, 160, 250, 400)
    ]
    return BenchmarkConfig(stolen=tuple(tags), seed=seed, **overrides)


@dataclass
class Victim:
    model: Classifier
    train_data: LabeledDataset
    test_data: LabeledDataset
    task: SyntheticTaskSpec

    def data(self, split: str) -> LabeledDataset:
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        return self.train_data if split == "train" else self.test_data


@dataclass
class BenchmarkTriplet:
    """Victims with their per-victim stolen and unrelated model sets."""

    victims: tuple[Victim, ...]
    stolen: dict[str, tuple[tuple[Classifier, TaskTag], ...]]
    unrelated: dict[str, tuple[tuple[Classifier, TaskTag], ...]]
    config: BenchmarkConfig | None = None

    def __post_init__(self):
        if not self.victims:
            raise ValueError("a benchmark needs at least one victim")
        ids = [v.model.identity for v in self.victims]
        _refuse_repeats(ids, "victim id")
        want = {tag.method for _, tag in self.stolen.get(ids[0], ())}
        for vid in ids:
            if not self.stolen.get(vid) or not self.unrelated.get(vid):
                raise ValueError(f"victim {vid} needs nonempty stolen and unrelated sets")
            suspects = self.stolen[vid] + self.unrelated[vid]
            _refuse_repeats([model.identity for model, _ in suspects], f"suspect id of {vid}")
            for _, tag in self.stolen[vid]:
                if not tag.is_positive:
                    raise ValueError(f"stolen set of {vid} carries an 'unrelated' tag")
            for _, tag in self.unrelated[vid]:
                if tag.is_positive:
                    raise ValueError(f"unrelated set of {vid} carries a positive tag")
            if (have := {tag.method for _, tag in self.stolen[vid]}) != want:
                raise ValueError(f"victims {ids[0]} and {vid} differ in stolen tasks: "
                                 f"{', '.join(sorted(want ^ have))}")

    @property
    def tasks(self) -> tuple[str, ...]:
        """The stolen tasks, which every victim shares, in the first victim's order."""
        first = self.stolen[self.victims[0].model.identity]
        return tuple(dict.fromkeys(tag.method for _, tag in first))


def _stolen_train(tag: TaskTag, config: BenchmarkConfig) -> TrainConfig | None:
    """The SGD run that trains ``tag``'s stolen model; None for a weight-space copy."""
    if tag.method in SGD_TAG_DEFAULTS:
        sgd = {key: tag.params.get(key, default)
               for key, default in SGD_TAG_DEFAULTS[tag.method].items()}
        return from_record(TrainConfig, sgd, f"{tag.method} tag ")
    return config.train if tag.method in EXTRACTION_MODES.values() else None


def _build_stolen(config: BenchmarkConfig, k: int, i: int, model: MLPClassifier
                  ) -> Classifier | TrainJob:
    """Victim ``i``'s stolen model of tag ``k``, or the job that trains it for SGD-trained tags."""
    tag, seed = config.stolen[k], derive_seed(config.seed, STREAM_STOLEN, i, k)
    cfg = _stolen_train(tag, config)
    if tag.method == "same":
        return same_copy(model, tag.params.get("index", 0))
    if tag.method == "prune":
        return prune(model, tag.params["fraction"], seed=seed)
    if tag.method == "quantize":
        return quantize(model, tag.params["bits"])
    if tag.method == "transfer":
        new_task = replace(
            config.task,
            seed=derive_seed(config.seed, STREAM_TRANSFER, seed),
            concept_seed=derive_seed(config.seed, STREAM_TRANSFER, seed, 1),
        )
        new_train, _ = generate_task(new_task)
        return transfer_job(model, new_train, cfg, seed=seed)
    train_data, _ = generate_task(_victim_task(config, i))
    if tag.method == "finetune":
        return finetune_job(model, train_data, cfg, seed=seed)
    if tag.method in EXTRACTION_MODES.values():
        pool = train_data
        pool_size = tag.params.get("pool_size")
        if pool_size and pool_size < len(pool):
            rng = np.random.default_rng(derive_seed(seed, STREAM_POOL))
            pool = pool.take(rng.choice(len(pool), pool_size, replace=False))
        mode = next(m for m, method in EXTRACTION_MODES.items() if method == tag.method)
        return extract_job(
            model, pool, config.arch, cfg, mode=mode, seed=seed,
            n_adversarial=tag.params.get("n_adversarial"),
        )
    raise ValueError(f"cannot build stolen model for method {tag.method!r}")


def _victim_task(config: BenchmarkConfig, i: int) -> SyntheticTaskSpec:
    return replace(config.task, seed=derive_seed(config.seed, STREAM_VICTIM_TASK, i))


def _negative_job(config: BenchmarkConfig, i: int, j: int | None) -> TrainJob:
    """Victim ``i``'s training job when ``j`` is None, else that of its unrelated model ``j``."""
    if j is None:
        train_data, _ = generate_task(_victim_task(config, i))
        arch = replace(config.arch, seed=derive_seed(config.seed, STREAM_VICTIM_MODEL, i))
        return train_job(train_data, arch, config.train, identity=f"victim-{i}")
    utask = replace(config.task, seed=derive_seed(config.seed, STREAM_UNRELATED_TASK, i, j))
    useed = derive_seed(config.seed, STREAM_UNRELATED_MODEL, i, j)
    return unrelated_job(generate_task(utask)[0], config.arch, config.train, useed,
                         identity=f"victim-{i}/unrelated-{j}")


# The build's process pool, made on first use: (owner pid, workers, executor)
_POOL = None


def _shutdown_pool() -> None:
    """Stop this process's pool; a pool inherited through ``fork`` is only dropped."""
    global _POOL
    if _POOL is not None:
        pid, _, executor = _POOL
        _POOL = None
        if pid == os.getpid():
            executor.shutdown(wait=True, cancel_futures=True)


atexit.register(_shutdown_pool)


def _pool(workers: int):
    """This process's fork pool of at least ``workers`` workers, reused across builds."""
    global _POOL
    if _POOL is None or _POOL[0] != os.getpid() or _POOL[1] < workers:
        _shutdown_pool()
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        _POOL = (os.getpid(), workers, ProcessPoolExecutor(workers, mp_context=context))
    return _POOL[2]


def _cpus() -> int:
    """How many CPUs this process may use."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fit_recipes(errstate: dict, recipes) -> list[MLPClassifier]:
    """The jobs ``make(*args)`` of the ``(make, *args)`` recipes, fitted as one stack."""
    with np.errstate(**errstate):
        return fit_stack([make(*args) for make, *args in recipes])


def _fit_stacks(stacks) -> list[list[MLPClassifier]]:
    """``_fit_recipes`` of each stack, in order: two or more run in the fork pool, one worker
    per CPU this process may use, and the caller's ``np.geterr()`` holds in each."""
    errstate = np.geterr()
    workers = min(_cpus(), len(stacks))
    if workers < 2 or not hasattr(os, "fork"):
        return [_fit_recipes(errstate, recipes) for recipes in stacks]
    from concurrent.futures import BrokenExecutor

    try:
        return list(_pool(workers).map(_fit_recipes, [errstate] * len(stacks), stacks))
    except BrokenExecutor:
        _shutdown_pool()
        raise


def build_benchmark(config: BenchmarkConfig) -> BenchmarkTriplet:
    """Train victims, derive their stolen sets, and train unrelated models.

    Fully reproducible from the config: every task draw and training run
    is keyed by seeds derived from ``config.seed``.  Stacking never changes
    a model's bits, so this function chooses every ``fit_stack``: the
    victims and their unrelated models, victim by victim, cut into one
    contiguous stack per CPU this process may use (``os.sched_getaffinity``),
    then one stack per SGD-trained stolen tag across the victims, longest
    first.  Weight-space copies are made in this process.  Two or more
    stacks train in a reused pool of forked workers, each building its own
    jobs; results are identical for any CPU count.  On Python 3.12 and later,
    forking a process that runs threads (numpy's BLAS threads among them)
    emits a ``DeprecationWarning``.
    """
    if not config.stolen:
        raise EmptyTaskList("benchmark config lists no stolen-model tags")
    recipes = [(_negative_job, config, i, j) for i in range(config.n_victims)
               for j in (None, *range(config.n_unrelated))]
    N, n, per = len(recipes), min(_cpus(), len(recipes)), 1 + config.n_unrelated
    stacks = [recipes[w * N // n:(w + 1) * N // n] for w in range(n)]
    fitted = [model for stack in _fit_stacks(stacks) for model in stack]
    victims, unrelated_map = [], {}
    for i in range(config.n_victims):
        model, *negatives = fitted[i * per:(i + 1) * per]
        task = _victim_task(config, i)
        victims.append(Victim(model, *generate_task(task), task))
        unrelated_map[model.identity] = tuple((neg, neg.tag) for neg in negatives)

    n_rows = config.task.n_train  # longest first: epochs x training rows
    costs = {k: cfg.epochs * min(tag.params.get("pool_size") or n_rows, n_rows)
             for k, tag in enumerate(config.stolen)
             if (cfg := _stolen_train(tag, config)) is not None}
    order = sorted(costs, key=lambda k: -costs[k])
    recipes = [[(_build_stolen, config, k, i, v.model) for i, v in enumerate(victims)]
               for k in range(len(config.stolen))]
    by_tag = dict(zip(order, _fit_stacks([recipes[k] for k in order])))
    columns = [by_tag.get(k) or [make(*args) for make, *args in c] for k, c in enumerate(recipes)]
    stolen = {v.model.identity: tuple((out, out.tag) for out in row)
              for v, row in zip(victims, zip(*columns))}
    return BenchmarkTriplet(tuple(victims), stolen, unrelated_map, config)


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------


def save_benchmark(bench: BenchmarkTriplet, out_dir) -> Path:
    """Write weight files and a JSON manifest; returns the manifest path.  A model that is
    not an ``MLPClassifier`` raises ``UnsavableModel`` before any file is written."""
    for victim in bench.victims:
        vid = victim.model.identity
        for model in (victim.model, *(m for m, _ in bench.stolen[vid] + bench.unrelated[vid])):
            if not isinstance(model, MLPClassifier):
                raise UnsavableModel(f"{model.identity} is a {type(model).__name__}; "
                                     "only an MLPClassifier has a weight file")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"version": 1, "victims": []}
    if bench.config is not None:
        manifest["config"] = bench.config.to_record()
    for i, victim in enumerate(bench.victims):
        vid = victim.model.identity
        vfile = f"victim-{i}.mpw"
        save_weights(victim.model, out_dir / vfile)
        ventry = {"id": vid, "file": vfile, "task": dataclasses.asdict(victim.task)}
        for group in ("stolen", "unrelated"):
            ventry[group] = []
            for k, (model, tag) in enumerate(getattr(bench, group)[vid]):
                fname = f"victim-{i}_{group}-{k}.mpw"
                save_weights(model, out_dir / fname)
                ventry[group].append(
                    {"id": model.identity, "file": fname, "tag": tag.to_record()}
                )
        manifest["victims"].append(ventry)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return path


def load_benchmark(bench_dir) -> BenchmarkTriplet:
    """Rebuild a benchmark from its manifest: datasets from task specs, weights from files.

    Each weight file must lie inside ``bench_dir`` and fit its victim's task;
    otherwise, as for any malformed manifest, ``ManifestError`` is raised.
    """
    bench_dir = Path(bench_dir)
    path = bench_dir / "manifest.json"
    manifest = read_json(path, ManifestError)
    root = bench_dir.resolve()

    def load_model(entry: dict, task: SyntheticTaskSpec, tag=None) -> MLPClassifier:
        """The entry's weights, which must lie inside the benchmark and fit ``task``."""
        file = (root / entry["file"]).resolve()
        if not file.is_relative_to(root):
            raise ManifestError(f"{path}: {entry['file']!r} lies outside {bench_dir}")
        model = load_weights(file, identity=entry["id"], tag=tag)
        if (model.input_dim, model.num_classes) != (task.dim, task.num_classes):
            raise ManifestError(
                f"{path}: {entry['id']} has {model.input_dim} inputs and "
                f"{model.num_classes} classes, its task {task.dim} and {task.num_classes}"
            )
        return model

    try:
        victims, stolen, unrelated_map = [], {}, {}
        for ventry in manifest["victims"]:
            task = from_record(SyntheticTaskSpec, ventry["task"], "task.")
            train_data, test_data = generate_task(task)
            model = load_model(ventry, task)
            victims.append(Victim(model, train_data, test_data, task))
            for group, table in (("stolen", stolen), ("unrelated", unrelated_map)):
                entries = []
                for e in ventry[group]:
                    tag = TaskTag.from_record(e["tag"])
                    entries.append((load_model(e, task, tag), tag))
                table[ventry["id"]] = tuple(entries)
        config = (
            BenchmarkConfig.from_record(manifest["config"])
            if "config" in manifest
            else None
        )
        return BenchmarkTriplet(tuple(victims), stolen, unrelated_map, config)
    # RuntimeError: ``Path.resolve`` on a symlink loop before Python 3.13
    except (KeyError, TypeError, ValueError, OSError, RuntimeError) as err:
        if isinstance(err, ModelprintError):
            raise
        raise ManifestError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairScore:
    """Oriented score for one (victim, suspect) pair: larger = more suspicious."""

    run: int
    victim: str
    suspect: str
    task: str
    positive: bool
    score: float


@dataclass(frozen=True)
class RocCurve:
    """(fpr, tpr) points from a sweep over all observed score thresholds."""

    points: tuple[tuple[float, float], ...]
    auc: float


def _rates(victims: list, score, group, n_groups: int, thresholds=None) -> np.ndarray:
    """Per-victim-averaged rates of ``score >= t``, ``(T, n_groups)``, from the highest of the
    ascending ``thresholds`` (the distinct scores by default) down; ``group`` is ``g * V + v``
    for pair set g (the last holds the negatives) and victim index v.  One ``searchsorted``
    finds each score's first flagging threshold, one ``bincount`` and a ``cumsum`` count, and
    ``count / n`` is averaged over the victims with pairs along the last, contiguous axis (as
    ``compress`` keeps it), so each rate is bit-equal to a scan at that one threshold.  A NaN
    score, which no threshold orders, raises ``ValueError`` naming its victim."""
    for j in np.flatnonzero(np.isnan(score))[:1]:
        raise ValueError(f"victim {victims[group[j] % len(victims)]} has a NaN score")
    if thresholds is None:
        thresholds = np.sort(score)
        thresholds = thresholds[np.concatenate(([True], thresholds[1:] != thresholds[:-1]))]
    T, size = len(thresholds), n_groups * len(victims)
    first = T - np.searchsorted(thresholds, score, side="right")
    total = np.bincount(first * size + group, minlength=(T + 1) * size)
    total = total.reshape(T + 1, n_groups, len(victims)).cumsum(axis=0)
    n, n_neg = total[T], total[T, -1]
    present = (n[:-1] + n_neg) > 0
    if not present.any():
        raise EmptyPairSet("no victims to evaluate")
    for j in np.argwhere(present & ((n[:-1] == 0) | (n_neg == 0)))[:, -1]:
        raise EmptyPairSet(f"victim {victims[j]} has no scored positive or negative pairs")
    keep = n_neg > 0  # each victim with pairs, as each has both kinds
    return (np.compress(keep, total[:T], axis=-1) / n[:, keep]).mean(axis=-1)


def _flag_rates(scores: list, thresholds=None) -> tuple[np.ndarray, np.ndarray]:
    """TPR and FPR: ``_rates`` of the positive and of the negative pairs in ``scores``."""
    victims = sorted({s.victim for s in scores})
    group = [(not s.positive) * len(victims) + victims.index(s.victim) for s in scores]
    rates = _rates(victims, np.array([s.score for s in scores], dtype=np.float64),
                   np.array(group, dtype=np.int64), 2, thresholds)
    return rates[:, 0], rates[:, 1]


def tpr_fpr_at_threshold(scores, threshold: float) -> tuple[float, float]:
    """Per-victim-averaged TPR and FPR of the rule ``score >= threshold``.

    Every victim contributes its own flag fraction, and victims are then
    averaged with equal weight regardless of how many pairs each has.
    A victim without positive or negative pairs raises ``EmptyPairSet``, a NaN score ``ValueError``.
    """
    tpr, fpr = _flag_rates(list(scores), np.array([threshold], dtype=np.float64))
    return float(tpr[0]), float(fpr[0])


def roc_curve(scores) -> RocCurve:
    """Exhaustive threshold sweep over the observed scores.

    Starts at (0, 0) (threshold above every score) and ends at (1, 1)
    (threshold at the minimum score); both rates are non-decreasing along
    the sweep.  Thresholds are the distinct scores of every pair.
    """
    scores = list(scores)
    if not scores:
        raise EmptyPairSet("cannot build a ROC from no scores")
    tpr, fpr = _flag_rates(scores)
    xs = np.concatenate(([0.0], fpr))
    ys = np.concatenate(([0.0], tpr))
    auc = float(np.trapezoid(ys, xs)) if hasattr(np, "trapezoid") else float(np.trapz(ys, xs))
    return RocCurve(tuple(zip(xs.tolist(), ys.tolist())), auc)


def tpr_at_fpr(curve: RocCurve, fpr_cap: float = 0.05) -> float:
    """Best TPR among curve points with FPR at most the cap; 0 if none."""
    if not 0.0 <= fpr_cap <= 1.0:
        raise ValueError(f"fpr_cap must lie in [0, 1], got {fpr_cap}")
    feasible = [tpr for fpr, tpr in curve.points if fpr <= fpr_cap]
    return max(feasible) if feasible else 0.0


def _tprs_at_cap(victims: list, run, victim, task, positive, score, n_runs: int,
                 n_tasks: int, fpr_cap: float) -> list[list[float]]:
    """``tpr_at_fpr(roc_curve(pairs), fpr_cap)`` per run for each task's positives with every
    negative, then for all pairs; 0.0 for a run without pairs.  ``victim`` indexes the sorted
    ``victims``.  One sweep over a run's distinct scores gives every subset's ROC points."""
    again = np.flatnonzero(positive)  # each positive counts once more, among all positives
    group = np.concatenate((np.where(positive, task, n_tasks + 1), np.full(again.size, n_tasks)))
    run, victim, score = (np.concatenate((a, a[again])) for a in (run, victim, score))
    group = group * len(victims) + victim
    out = [[0.0] * (n_tasks + 1) for _ in range(n_runs)]
    for r in sorted(set(run.tolist())):
        mine = run == r
        rates = _rates(victims, score[mine], group[mine], n_tasks + 2)
        out[r] = rates[rates[:, -1] <= fpr_cap, :-1].max(axis=0, initial=0.0).tolist()
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

TPR_CSV_HEADER = ("task", "budget", "run", "seed", "tpr_at_cap")


def _mean_std(values) -> dict:
    arr = np.asarray(list(values), dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std()), "runs": [float(v) for v in arr]}


@dataclass
class EvalReport:
    """Per-task and aggregate TPR@cap with per-pair scores."""

    scheme: dict
    budget: int
    n_runs: int
    run_seeds: tuple[int, ...]
    fpr_cap: float
    per_task: dict
    aggregate: dict
    scores: tuple[PairScore, ...]
    skipped: tuple[dict, ...]
    model_scale: dict
    run_config: dict

    def to_record(self) -> dict:  # built directly: dataclasses.asdict took ~9 ms a desk report
        scores = tuple(dict(vars(s)) for s in self.scores)
        return {"version": __version__} | vars(self) | {"scores": scores}

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True, separators=(",", ":"))

    def csv_rows(self) -> list[tuple]:
        entries = [(task, self.per_task[task]) for task in sorted(self.per_task)]
        entries += [(f"aggregate:{name}", self.aggregate[name])
                    for name in ("mean_over_tasks", "pooled_pairs")]
        return [(label, self.budget, run, seed, tpr) for label, entry in entries
                for run, (tpr, seed) in enumerate(zip(entry["runs"], self.run_seeds))]

    def save(self, out_dir, stem: str = "report") -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        jpath = out_dir / f"{stem}.json"
        jpath.write_text(self.to_json() + "\n")
        cpath = out_dir / f"{stem}.csv"
        with cpath.open("w", newline="") as fh:
            write_csv(fh, [TPR_CSV_HEADER, *self.csv_rows()])
        return jpath, cpath


def evaluate(
    spec: SchemeSpec,
    benchmark: BenchmarkTriplet,
    n_runs: int = 5,
    seed: int = 0,
    fpr_cap: float = 0.05,
    workers: int = 1,
    compute_pair_stats: bool = True,
) -> EvalReport:
    """Score every pair over ``n_runs`` seeded runs and report TPR@cap.

    Run r uses root seed ``seed + r``; query seeds are derived per victim.  Victims whose
    sampler is infeasible at ``spec.budget``, or that answer with NaN or inf, are skipped
    (logged, not fatal).  Two aggregates are reported per run and labeled explicitly: the
    mean of per-task TPRs and the TPR of all pairs pooled across tasks.  Each victim's runs
    are drawn in one ``Sampler.sample_runs`` call, and each suspect answers all of them in
    one query (``FingerprintScheme.cell_distances``), bit for bit as one (run, victim) cell
    at a time.  If that call raises a ``ModelprintError``, each run is drawn alone, so only
    the runs that fail are skipped.  A victim's distances stay one (drawn run, suspect)
    array, which gives both the TPRs and the report's ``scores``.  ``workers`` and
    ``compute_pair_stats`` change nothing: perfbench passes both and its tracer reads
    ``workers``, and pair statistics come from ``pair_distance_report``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if not 0.0 <= fpr_cap <= 1.0:
        raise ValueError(f"fpr_cap must lie in [0, 1], got {fpr_cap}")
    run_seeds = tuple(seed + r for r in range(n_runs))
    scheme = FingerprintScheme(spec)

    tasks = benchmark.tasks
    ids = sorted(v.model.identity for v in benchmark.victims)
    scores: list[PairScore] = []
    skipped: list[dict] = []
    pairs = []  # per victim, _tprs_at_cap's run, victim, task, positive and score arrays
    for vi, victim in enumerate(benchmark.victims):
        vid = victim.model.identity
        pool = victim.data(spec.seed_split)
        seeds = [derive_seed(rseed, STREAM_QUERY, vi) for rseed in run_seeds]
        try:
            drawn = spec.sampler.sample_runs([pool] * n_runs, victim.model, spec.budget, seeds)
        except ModelprintError:  # some run cannot be drawn: draw each alone, in its cell's try
            drawn = [None] * n_runs
        cells = {}
        for run, (qs, qseed) in enumerate(zip(drawn, seeds)):
            try:  # only a failure in sampling or in the victim's fingerprint skips the cell
                qs = scheme.query_set(victim.model, pool, qseed) if qs is None else qs
                cells[run] = (scheme.fingerprint(victim.model, qs), qs)
            except ModelprintError as err:
                log.warning("skipping victim %s in run %d: %s", vid, run, err.code)
                skipped.append({"run": run, "victim": vid, "error": err.code, "detail": str(err)})
        suspects = benchmark.stolen[vid] + benchmark.unrelated[vid]
        runs = np.fromiter(cells, np.int64)
        score = -scheme.cell_distances(list(cells.values()), [m for m, _ in suspects])
        task = [tasks.index(tag.method) if tag.is_positive else 0 for _, tag in suspects]
        positive = [tag.is_positive for _, tag in suspects]
        pairs.append([np.broadcast_to(a, score.shape).ravel()
                      for a in (runs[:, None], ids.index(vid), task, positive, score)])
        scores += [PairScore(run, vid, m.identity, tag.method, tag.is_positive, s) for run, row
                   in zip(runs.tolist(), score.tolist()) for (m, tag), s in zip(suspects, row)]
    scores.sort(key=lambda s: (s.run, s.victim, s.suspect))
    skipped.sort(key=lambda s: s["run"])
    tprs = _tprs_at_cap(ids, *map(np.concatenate, zip(*pairs)), n_runs, len(tasks), fpr_cap)

    sample_victim = benchmark.victims[0]
    mlp = sample_victim.model if isinstance(sample_victim.model, MLPClassifier) else None
    model_scale = {
        "layer_widths": list(mlp.spec.layer_widths) if mlp else None,
        "n_params": mlp.spec.n_params if mlp else None,
        "n_victims": len(benchmark.victims),
        "n_train": len(sample_victim.train_data),
        "n_test": len(sample_victim.test_data),
    }
    return EvalReport(
        scheme=spec.to_record(),
        budget=spec.budget,
        n_runs=n_runs,
        run_seeds=run_seeds,
        fpr_cap=fpr_cap,
        per_task={t: _mean_std(row[k] for row in tprs) for k, t in enumerate(tasks)},
        aggregate={"mean_over_tasks": _mean_std(float(np.mean(row[:-1])) for row in tprs),
                   "pooled_pairs": _mean_std(row[-1] for row in tprs)},
        scores=tuple(scores),
        skipped=tuple(skipped),
        model_scale=model_scale,
        run_config={"seed": seed},
    )


# ---------------------------------------------------------------------------
# Budget sweeps and distance reports
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    """Each budget's ``EvalReport``, keyed in ascending budget order."""

    reports: dict


def budget_sweep(
    spec: SchemeSpec,
    benchmark: BenchmarkTriplet,
    budgets,
    n_runs: int = 5,
    seed: int = 0,
    fpr_cap: float = 0.05,
    cell_callback=None,
) -> SweepReport:
    """Evaluate the scheme spec at each budget (strictly ascending); shared run seeds.

    ``cell_callback(budget, report)`` fires after each completed budget so
    callers can stream partial grids to disk.
    """
    budgets = [int(b) for b in budgets]
    if any(a >= b for a, b in zip(budgets, budgets[1:])):
        raise ValueError(f"budgets must be strictly ascending, got {budgets}")
    reports = {}
    for budget in budgets:
        report = evaluate(
            replace(spec, budget=budget),
            benchmark,
            n_runs=n_runs,
            seed=seed,
            fpr_cap=fpr_cap,
        )
        if report.skipped:
            log.warning(
                "budget %d: %d victim-run cells skipped", budget, len(report.skipped)
            )
        reports[budget] = report
        if cell_callback is not None:
            cell_callback(budget, report)
    return SweepReport(reports)


@dataclass
class DistanceReport:
    """Pair statistics on ``split``: one row per pair, with its ``PairStats`` fields.

    ``groups`` summarizes the defined conditioned Hamming distances per task
    (negatives as ``"unrelated"``).  ``overlap`` is the fraction of positive-pair
    values exceeding the 5th percentile of the negative-pair values; 0 means the
    two are perfectly separated there.  ``skipped`` lists the victims left out.
    """

    split: str
    rows: tuple[dict, ...]
    groups: dict
    overlap: float | None
    n_undefined: int
    skipped: tuple[dict, ...]

    def to_record(self) -> dict:
        return vars(self) | {"rows": list(self.rows), "skipped": list(self.skipped)}


def _percentile(values: list, q: float) -> float:
    """``np.percentile(values, q)`` of finite values, by numpy's linear rule and arithmetic,
    without the lazy ``numpy.ma`` import of its ``np.unique`` call in numpy 2 (18 ms of a
    fresh ``modelprint evaluate`` on a 2-vCPU x86_64 VM)."""
    values = sorted(values)
    at = (len(values) - 1) * (q / 100)
    i = int(at)
    a, b, t = values[i], values[min(i + 1, len(values) - 1)], at - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def pair_distance_report(
    benchmark: BenchmarkTriplet, split: str = "test"
) -> DistanceReport:
    """Pair statistics of every benchmark pair on ``split`` and their distribution.

    Each victim and each suspect is predicted once.  A victim whose labels
    raise a ``ModelprintError`` (a ``NonFiniteAnswer``, say) is logged and
    left out, and listed in ``skipped``; a suspect's error raises.
    """
    rows, skipped = [], []
    for victim in benchmark.victims:
        vid, data = victim.model.identity, victim.data(split)
        try:
            yh = victim.model.predict(data.points)
        except ModelprintError as err:
            log.warning("no pair statistics for victim %s: %s", vid, err.code)
            skipped.append({"victim": vid, "error": err.code, "detail": str(err)})
            continue
        for model, tag in benchmark.stolen[vid] + benchmark.unrelated[vid]:
            st = label_pair_stats(yh, model.predict(data.points), data.labels)
            rows.append({"victim": vid, "suspect": model.identity, "task": tag.method,
                         "positive": tag.is_positive, **vars(st)})
    defined = [r for r in rows if r["delta_c"] is not None]
    pos = [r["delta_c"] for r in defined if r["positive"]]
    neg = [r["delta_c"] for r in defined if not r["positive"]]
    overlap = None
    if pos and neg:
        cutoff = _percentile(neg, 5.0)
        overlap = float(np.mean([v > cutoff for v in pos]))
    groups: dict = {}
    for r in defined:
        key = r["task"] if r["positive"] else "unrelated"
        groups.setdefault(key, []).append(r["delta_c"])
    group_summary = {
        k: {"mean": float(np.mean(v)), "std": float(np.std(v)), "n": len(v)}
        for k, v in sorted(groups.items())
    }
    return DistanceReport(
        split=split,
        rows=tuple(rows),
        groups=group_summary,
        overlap=overlap,
        n_undefined=len(rows) - len(defined),
        skipped=tuple(skipped),
    )
