"""Assembling samplers, representations, and detectors into schemes.

A fingerprinting scheme is a (sampler, representation, detector) triple
with a query budget.  Its score for a model pair is the fingerprint
distance (lower = more suspicious); its flag decision applies either a
fixed majority threshold or a pool-calibrated quantile threshold.

The module also houses the mistake-matching baseline: query the suspect
on points the victim misclassifies and flag when a majority of the
answers agree.  Independently trained models rarely reproduce a victim's
idiosyncratic errors, so agreement on those points is strong evidence of
copying.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .core import SPLITS, Classifier, LabeledDataset, from_record
from .errors import IncompatibleScheme, InsufficientNegatives
from .fingerprints import (
    INNER_DISTANCES,
    KINDS,
    Fingerprint,
    fingerprint_distance,  # noqa: F401  (patched by the benchmark's tracer)
    fingerprint_distances,
    needs_probits,
    quantile_threshold,
    represent,
)
from .samplers import (
    NegativeSampler,
    QuerySet,
    Sampler,
    UniformSampler,
    sampler_from_record,
)

log = logging.getLogger(__name__)

DETECTOR_KINDS = ("quantile", "majority")


@dataclass(frozen=True)
class DetectorSpec:
    """How to turn a fingerprint distance into a flag.

    ``majority`` flags below the fixed threshold 1/2 (for label-Hamming
    scores this is exactly a majority vote on per-query agreement);
    ``quantile`` calibrates the threshold on a pool of unrelated-model
    fingerprints at ``target_fpr``.
    """

    kind: str = "quantile"
    target_fpr: float = 0.05

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"detector kind must be one of {DETECTOR_KINDS}")
        if not 0.0 <= self.target_fpr <= 1.0:
            raise ValueError("target_fpr must lie in [0, 1]")


@dataclass(frozen=True)
class SchemeSpec:
    """Full description of a fingerprinting scheme.

    ``seed_split`` names the dataset split used as the sampler's seed
    pool when evaluating on a benchmark.
    """

    sampler: Sampler
    representation: str
    inner_distance: str = "cosine"
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    budget: int = 100
    seed_split: str = "test"

    def __post_init__(self):
        if self.representation not in KINDS:
            raise ValueError(f"representation must be one of {KINDS}")
        if self.inner_distance not in INNER_DISTANCES:
            raise ValueError(f"inner_distance must be one of {INNER_DISTANCES}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.seed_split not in SPLITS:
            raise ValueError(f"seed_split must be one of {SPLITS}")
        if self.representation == "pairwise":
            if self.sampler.pairing_length(self.budget) == 0:
                raise IncompatibleScheme(
                    "pairwise representation needs a pairing-producing sampler"
                )
            if 2 * self.sampler.pairing_length(self.budget) != self.budget:
                raise IncompatibleScheme(
                    "pairwise representation needs the pairing to cover s/2 "
                    "couples; adjust k_variants or the sampler"
                )

    @property
    def needs_probits(self) -> bool:
        return needs_probits(self.representation, self.inner_distance)

    def label(self) -> str:
        """Short human-readable identifier, used in reports."""
        samp = self.sampler.to_record()
        name = samp["kind"]
        if name == "chain":
            name = f"{samp['first']['kind']}>{samp['second']['kind']}"
        return f"{name}/{self.representation}/{self.detector.kind}@{self.budget}"

    def to_record(self) -> dict:
        return asdict(self) | {"sampler": self.sampler.to_record()}

    @staticmethod
    def from_record(rec: dict) -> "SchemeSpec":
        detector = partial(from_record, DetectorSpec)
        return from_record(SchemeSpec, rec, sampler=sampler_from_record, detector=detector)


class FingerprintScheme:
    """A runnable scheme: query, represent, compare, decide."""

    def __init__(self, spec: SchemeSpec):
        self.spec = spec

    def query_set(
        self, victim: Classifier, seed_set: LabeledDataset, seed: int
    ) -> QuerySet:
        return self.spec.sampler.sample(seed_set, victim, self.spec.budget, seed)

    def _answers(self, model: Classifier, X: np.ndarray, blocks: int = 1) -> np.ndarray:
        if self.spec.needs_probits:
            return model.probits(X, blocks)
        return model.predict(X, blocks)

    def fingerprint(self, model: Classifier, qs: QuerySet) -> Fingerprint:
        return represent(
            qs,
            self._answers(model, qs.points),
            self.spec.representation,
            self.spec.inner_distance,
        )

    def cell_distances(self, cells: list, models) -> list[list[float]]:
        """``distances`` for each ``(fp, qs)`` cell, from the victim's fingerprint ``fp``.

        The cells are of one query-set size, answered as one stack per model, as
        ``blocks``, bit for bit as one cell at a time; the answers to every cell are
        held at once.  Cells of unequal size raise ``ValueError``.
        """
        if not cells:
            return []
        sizes = sorted({qs.size for _, qs in cells})
        if len(sizes) > 1:
            raise ValueError(f"cells must share one query-set size, got sizes {sizes}")
        n, X = len(cells), np.concatenate([qs.points for _, qs in cells])
        stacks = [A.reshape(n, -1, *A.shape[1:]) for A in (self._answers(m, X, n) for m in models)]
        return [fingerprint_distances(fp, qs, [A[i] for A in stacks], self.spec.representation,
                                      self.spec.inner_distance)
                for i, (fp, qs) in enumerate(cells)]

    def distances(self, victim: Classifier, models, qs: QuerySet) -> list[float]:
        """Fingerprint distance from ``victim`` to each model on one query set.

        This is ``cell_distances``' one-cell case: each model answers ``qs`` in
        one query of its own, and each distance is bit-equal to
        ``fingerprint_distance`` between the victim's and the model's fingerprints on ``qs``.
        """
        return self.cell_distances([(self.fingerprint(victim, qs), qs)], models)[0]

    def score(
        self,
        victim: Classifier,
        suspect: Classifier,
        seed_set: LabeledDataset,
        seed: int,
    ) -> float:
        """Fingerprint distance between victim and suspect; lower = more suspicious."""
        qs = self.query_set(victim, seed_set, seed)
        return self.distances(victim, (suspect,), qs)[0]

    def flag(
        self,
        victim: Classifier,
        suspect: Classifier,
        seed_set: LabeledDataset,
        seed: int,
        calibration_models=(),
    ) -> tuple[int, float, float]:
        """Flag decision for one pair: (flag, distance, threshold).

        The quantile detector calibrates its threshold on fingerprints of
        ``calibration_models`` (unrelated models) over the same query set.
        """
        qs = self.query_set(victim, seed_set, seed)
        majority = self.spec.detector.kind == "majority"
        pool_models = () if majority else tuple(calibration_models)
        dist, *pool = self.distances(victim, (suspect, *pool_models), qs)
        threshold = 0.5 if majority else quantile_threshold(pool, self.spec.detector.target_fpr)
        return int(dist < threshold), dist, threshold


def assemble_scheme(spec: SchemeSpec) -> FingerprintScheme:
    """Instantiate the pipeline described by a scheme spec."""
    return FingerprintScheme(spec)


def mistake_match_scheme(budget: int = 100) -> SchemeSpec:
    """The baseline as a scheme: negative sampling, raw labels, majority vote."""
    return SchemeSpec(
        sampler=NegativeSampler(),
        representation="raw_labels",
        inner_distance="labels",
        detector=DetectorSpec(kind="majority"),
        budget=budget,
    )


def mistake_match_test(
    h: Classifier,
    h_sus: Classifier,
    data: LabeledDataset,
    k_queries: int,
    seed: int,
) -> tuple[int, float]:
    """Mistake-matching majority vote: (flag, match_score).

    Draws ``k_queries`` points the victim misclassifies, scores the
    fraction on which the suspect returns the victim's (wrong) answer,
    and flags when that fraction exceeds 1/2.  The match score doubles as
    a ROC statistic.  When the victim is perfect on ``data`` the test
    falls back to uniform sampling; when fewer negatives than requested
    exist, the budget is lowered to what is available.
    """
    if len(data) == 0:
        raise InsufficientNegatives("no negative points: dataset is empty", available=0)
    if k_queries < 1:
        raise ValueError("k_queries must be >= 1")
    try:
        qs = NegativeSampler().sample(data, h, k_queries, seed)
    except InsufficientNegatives as err:
        if err.available == 0:
            log.warning(
                "%s classifies the whole pool correctly; falling back to "
                "uniform sampling",
                h.identity,
            )
            qs = UniformSampler().sample(data, None, min(k_queries, len(data)), seed)
        else:
            log.warning(
                "only %d negatives available for %s; lowering budget from %d",
                err.available,
                h.identity,
                k_queries,
            )
            qs = NegativeSampler().sample(data, h, err.available, seed)
    scheme = FingerprintScheme(mistake_match_scheme(qs.size))
    dist = scheme.distances(h, (h_sus,), qs)[0]
    return int(dist < 0.5), 1.0 - dist


def standard_scheme_grid(budget: int = 100) -> list[SchemeSpec]:
    """Cartesian sweep over samplers x representations x detectors.

    Enumerates every compatible combination of the four base samplers
    plus the negative-into-adversarial chain with the label/probit
    representations and both detector kinds.
    """
    from .samplers import AdversarialSampler, ChainSampler, Subsampler

    adv = AdversarialSampler()
    samplers: list[Sampler] = [
        UniformSampler(),
        NegativeSampler(),
        adv,
        Subsampler(k_variants=1, vicinity_scale=0.8),
        ChainSampler(first=NegativeSampler(), second=adv),
    ]
    detectors = [DetectorSpec(kind="quantile", target_fpr=0.05), DetectorSpec(kind="majority")]
    specs = []
    for sampler in samplers:
        for representation in KINDS:
            inner = "cosine" if representation != "raw_labels" else "labels"
            for detector in detectors:
                try:
                    specs.append(
                        SchemeSpec(
                            sampler=sampler,
                            representation=representation,
                            inner_distance=inner,
                            detector=detector,
                            budget=budget,
                        )
                    )
                except IncompatibleScheme:
                    continue
    return specs
