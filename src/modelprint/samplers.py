"""Query-set samplers: uniform, negative, adversarial, subsampling, chains.

A sampler turns a labeled seed pool (and, for model-aware samplers, the
victim handle) into an ordered query set of a requested budget, as a pure
function of its inputs and an integer seed, for one run or many at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import Access, Classifier, LabeledDataset, from_record
from .errors import (
    BudgetExceedsPool,
    BudgetShapeMismatch,
    GradientRequired,
    IncompatibleScheme,
    IncompatibleTask,
    InsufficientNegatives,
)


@dataclass(frozen=True)
class QuerySet:
    """An ordered set of query points with optional (seed, derived) pairing.

    ``pairing`` lists index couples (i, j) meaning point j was derived
    from point i.  ``source_indices`` maps each point back to its row in
    the seed pool, with -1 for synthesized points; chained samplers use
    it to re-seed their second stage.
    """

    points: np.ndarray
    provenance: dict
    pairing: Optional[tuple[tuple[int, int], ...]] = None
    source_indices: Optional[np.ndarray] = None

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", points)
        if self.pairing is not None:
            pairing = tuple((int(i), int(j)) for i, j in self.pairing)
            s = points.shape[0]
            for i, j in pairing:
                if not (0 <= i < j < s):
                    raise ValueError(f"pairing entry ({i}, {j}) out of range for s={s}")
            object.__setattr__(self, "pairing", pairing)
        if self.source_indices is not None:
            idx = np.asarray(self.source_indices, dtype=np.int64)
            if idx.shape[0] != points.shape[0]:
                raise ValueError("source_indices length must match points")
            object.__setattr__(self, "source_indices", idx)

    @property
    def size(self) -> int:
        return self.points.shape[0]


class Sampler:
    """Base interface; subclasses are small frozen parameter records."""

    name = "base"

    def sample(
        self, seed_set: LabeledDataset, model: Classifier | None, budget: int, seed: int
    ) -> QuerySet:
        return self.sample_runs([seed_set], model, budget, [seed])[0]

    def sample_runs(self, pools, model: Classifier | None, budget: int, seeds) -> list[QuerySet]:
        """Run r's query set from ``pools[r]`` and ``seeds[r]``, bit for bit as ``sample``, its
        one-run case, draws it alone.  If a run cannot be drawn, this raises the error ``sample``
        raises for one such run.  Unless a subclass stacks its runs,
        ``_draw(pool, model, budget, seed, memo)`` draws each, sharing ``memo``."""
        budget, memo = _check_budget(budget), {}
        return [self._draw(pool, model, budget, seed, memo) for pool, seed in zip(pools, seeds)]

    def seed_budget(self, budget: int) -> int:
        """How many seed-pool points a run at ``budget`` consumes."""
        return budget

    def pairing_length(self, budget: int) -> int:
        """How many (seed, derived) couples a run at ``budget`` pairs up."""
        return 0

    def to_record(self) -> dict:
        """The kind and every parameter field; ``sampler_from_record`` inverts it."""
        return {"kind": self.name} | {f.name: getattr(self, f.name) for f in fields(self)}

    def _seed_rows(
        self, pool: int | np.ndarray, budget: int, seed: int
    ) -> tuple[np.ndarray, np.random.Generator]:
        """``seed_budget(budget)`` distinct rows of ``pool`` (a size or row array), and the rng."""
        k = self.seed_budget(budget)
        n = pool if isinstance(pool, int) else len(pool)
        if k > n:
            raise BudgetExceedsPool(f"needs {k} seed points, pool has {n}")
        rng = np.random.default_rng(seed)
        return rng.choice(pool, k, replace=False), rng

    def _query_set(self, points, budget: int, seed: int, **layout) -> QuerySet:
        """A ``QuerySet`` whose provenance is the sampler kind, budget, seed and every field."""
        params = self.to_record()
        provenance = {"sampler": params.pop("kind"), "budget": budget, "seed": int(seed)}
        provenance |= {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}
        return QuerySet(points, provenance, **layout)


def _check_budget(budget: int) -> int:
    budget = int(budget)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    return budget


@dataclass(frozen=True)
class UniformSampler(Sampler):
    """Draw ``budget`` points uniformly without replacement from the pool."""

    name = "uniform"

    def _draw(self, pool, model, budget, seed, memo):
        idx, _ = self._seed_rows(len(pool), budget, seed)
        return self._query_set(pool.points[idx], budget, seed, source_indices=idx)

    sample = Sampler.sample  # the benchmark's tracer patches this name on each class


@dataclass(frozen=True)
class NegativeSampler(Sampler):
    """Draw from the points the victim misclassifies (h(x) != c(x))."""

    name = "negative"

    def _draw(self, pool, model, budget, seed, memo):
        if model is None:
            raise ValueError("negative sampling needs the victim model")
        if id(pool) not in memo:  # the victim labels each pool once per call
            memo[id(pool)] = np.flatnonzero(model.predict(pool.points) != pool.labels)
        wrong = memo[id(pool)]
        if wrong.size < budget:
            raise InsufficientNegatives(
                f"victim misclassifies {wrong.size} of {len(pool)} pool "
                f"points, budget is {budget}",
                available=int(wrong.size),
            )
        idx, _ = self._seed_rows(wrong, budget, seed)
        return self._query_set(pool.points[idx], budget, seed, source_indices=idx)

    sample = Sampler.sample  # the benchmark's tracer patches this name on each class


def projected_gradient_ascent(model: Classifier, X: np.ndarray, labels: np.ndarray, eps,
                              steps: int, step_size, blocks: int = 1) -> np.ndarray:
    """Maximize cross-entropy against ``labels`` inside a per-dimension box.

    Sign-gradient ascent with projection onto ``|u - x| <= eps`` from the clean
    points.  ``X`` may hold ``blocks`` equal row blocks, each ascended bit for bit as
    if alone by one ``xent_input_gradient(U, labels, blocks)`` query per step; ``eps``
    and ``step_size`` are scalars, per-dimension vectors or one vector per block.
    """
    X = np.asarray(X, dtype=np.float64)
    per_block = (blocks, X.shape[1])
    eps, step = (np.repeat(np.broadcast_to(np.asarray(v, dtype=np.float64), per_block),
                           len(X) // blocks, axis=0) for v in (eps, step_size))
    U = X.copy()
    lo, hi = X - eps, X + eps
    for _ in range(int(steps)):
        g = model.xent_input_gradient(U, labels, blocks)
        U = np.clip(U + step * np.sign(g), lo, hi)
    return U


@dataclass(frozen=True)
class AdversarialSampler(Sampler):
    """Half seed points, half gradient-ascent perturbations of them.

    Each seed x is pushed to increase the victim's cross-entropy against
    its own original label h(x), inside a box of per-dimension radius
    ``eps``.  With ``eps=None`` the radius defaults to 0.1 times the
    per-dimension range of the seed pool, and the step size to eps / 8.
    ``sample_runs`` ascends all runs as one stack, one block per run.
    """

    eps: float | tuple[float, ...] | None = None
    steps: int = 20
    step_size: float | None = None
    name = "adversarial"

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.step_size is not None and not 0.0 <= self.step_size < np.inf:
            raise ValueError(f"step_size must be finite and >= 0, got {self.step_size}")
        if self.eps is not None:
            eps = np.asarray(self.eps, dtype=np.float64)
            if eps.ndim > 1:
                raise ValueError(f"eps must be a scalar or a vector, got shape {eps.shape}")
            if not ((eps >= 0.0) & (eps < np.inf)).all():
                raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
            object.__setattr__(self, "eps", float(eps) if eps.ndim == 0 else tuple(eps.tolist()))

    def seed_budget(self, budget):
        return budget // 2

    def pairing_length(self, budget):
        return budget // 2

    def perturb(self, model: Classifier, seed_sets, X: np.ndarray) -> np.ndarray:
        """Gradient-ascent copies of ``X``, one equal block per seed set, against ``model``'s
        own labels, each in its set's box.  This is the one definition of the default
        box: radius 0.1 times the set's per-dimension range, steps of eps / 8."""
        eps = np.stack([0.1 * (s.points.max(axis=0) - s.points.min(axis=0)) if self.eps is None
                        else np.broadcast_to(np.asarray(self.eps, dtype=np.float64), (s.dim,))
                        for s in seed_sets])
        n, step = len(seed_sets), (eps / 8.0 if self.step_size is None else self.step_size)
        return projected_gradient_ascent(model, X, model.predict(X, n), eps, self.steps, step, n)

    def sample_runs(self, pools, model, budget, seeds):
        budget = _check_budget(budget)
        if budget % 2:
            raise BudgetShapeMismatch(f"adversarial sampling needs an even budget, got {budget}")
        if model is None or model.access < Access.GRADIENTS:
            raise GradientRequired("adversarial sampling needs gradient access")
        rows = []
        for pool, seed in zip(pools, seeds):
            rows.append(self._seed_rows(len(pool), budget, seed)[0])
            if np.ndim(self.eps) and len(self.eps) != pool.dim:
                raise IncompatibleTask(
                    f"eps has {len(self.eps)} components for a task of dimension {pool.dim}")
        if not rows:
            return []
        X = np.concatenate([pool.points[idx] for pool, idx in zip(pools, rows)])
        U = self.perturb(model, pools, X)
        half = budget // 2
        pairing = tuple((i, i + half) for i in range(half))
        return [self._query_set(np.concatenate([clean, moved]), budget, seed, pairing=pairing,
                                source_indices=np.concatenate([idx, np.full(half, -1, np.int64)]))
                for idx, seed, clean, moved in zip(rows, seeds, np.split(X, len(rows)),
                                                   np.split(U, len(rows)))]

    sample = Sampler.sample  # the benchmark's tracer patches this name on each class


@dataclass(frozen=True)
class Subsampler(Sampler):
    """Seeds plus masked copies in their vicinity.

    Every seed point gets ``k_variants`` derived points where each
    coordinate survives with probability ``vicinity_scale`` and is zeroed
    otherwise -- a feature-masking analogue of super-pixel perturbation
    for generic vectors.  Budget must equal n_seeds * (1 + k_variants).
    """

    k_variants: int = 3
    vicinity_scale: float = 0.8
    name = "subsample"

    def __post_init__(self):
        if self.k_variants < 0:
            raise ValueError("k_variants must be >= 0")
        if not 0.0 <= self.vicinity_scale <= 1.0:
            raise ValueError("vicinity_scale must lie in [0, 1]")

    def seed_budget(self, budget):
        return budget // (1 + self.k_variants)

    def pairing_length(self, budget):
        return self.seed_budget(budget) * self.k_variants

    def _draw(self, pool, model, budget, seed, memo):
        block = 1 + self.k_variants
        if budget % block:
            raise BudgetShapeMismatch(
                f"budget {budget} is not a multiple of 1 + k_variants = {block}"
            )
        idx, rng = self._seed_rows(len(pool), budget, seed)
        X, n_seeds = pool.points[idx], len(idx)
        k, d = self.k_variants, pool.dim
        keep = rng.random((n_seeds, k, d)) < self.vicinity_scale
        points = np.concatenate([X, (X[:, None, :] * keep).reshape(n_seeds * k, d)], axis=0)
        pairing = tuple((i, n_seeds + i * k + j) for i in range(n_seeds) for j in range(k))
        src = np.concatenate([idx, np.full(n_seeds * k, -1, dtype=np.int64)])
        # k = 0 leaves the seeds alone, unpaired
        return self._query_set(points, budget, seed, pairing=pairing or None, source_indices=src)

    sample = Sampler.sample  # the benchmark's tracer patches this name on each class


@dataclass(frozen=True)
class ChainSampler(Sampler):
    """Feed one sampler's output into another as its seed pool.

    The first stage must be index-preserving (its points must come from
    the pool) so labels can follow the selected points into the second
    stage.  The classic instance chains negative selection into
    adversarial generation.  Each stage draws all runs at once.
    """

    first: Sampler
    second: Sampler
    name = "chain"

    def seed_budget(self, budget):
        return self.first.seed_budget(self.second.seed_budget(budget))

    def pairing_length(self, budget):
        return self.second.pairing_length(budget)

    def sample_runs(self, pools, model, budget, seeds):
        budget = _check_budget(budget)
        inner = self.second.seed_budget(budget)
        if inner < 1:
            raise BudgetShapeMismatch(f"chain stage {self.second.name} takes {inner} seed "
                                      f"points at budget {budget}")
        streams = [np.random.SeedSequence(int(s)).generate_state(2, np.uint64) for s in seeds]
        firsts = self.first.sample_runs(pools, model, inner, [int(s1) for s1, _ in streams])
        if any(q1.source_indices is None or (q1.source_indices < 0).any() for q1 in firsts):
            raise IncompatibleScheme(
                f"{self.first.name} synthesizes points and cannot seed a chain stage")
        seconds = self.second.sample_runs(
            [pool.take(q1.source_indices) for pool, q1 in zip(pools, firsts)],
            model, budget, [int(s2) for _, s2 in streams])
        out = []
        for seed, q1, q2 in zip(seeds, firsts, seconds):
            src = q2.source_indices
            if src is not None:
                src = np.where(src >= 0, q1.source_indices[np.maximum(src, 0)], -1)
            provenance = {"sampler": self.name, "budget": budget, "seed": int(seed),
                          "stages": [q1.provenance, q2.provenance]}
            out.append(QuerySet(q2.points, provenance, pairing=q2.pairing, source_indices=src))
        return out

    def to_record(self):
        return super().to_record() | {f: getattr(self, f).to_record() for f in ("first", "second")}

    sample = Sampler.sample  # the benchmark's tracer patches this name on each class


SAMPLER_KINDS = {
    "uniform": UniformSampler,
    "negative": NegativeSampler,
    "adversarial": AdversarialSampler,
    "subsample": Subsampler,
    "chain": ChainSampler,
}


def sampler_from_record(rec: dict, where: str = "") -> Sampler:
    """Inverse of ``Sampler.to_record``: ``kind`` picks the class, ``from_record`` the rest."""
    params = dict(rec) if isinstance(rec, dict) else {}
    kind = params.pop("kind", None)
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"{where}kind must be one of {tuple(SAMPLER_KINDS)}, got {kind!r}")
    stage = sampler_from_record
    return from_record(SAMPLER_KINDS[kind], params, where, first=stage, second=stage)
