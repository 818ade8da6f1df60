"""Fingerprint representations, distances, and threshold calibration.

A fingerprint is a compact representation of a model's answers on a
query set: the raw labels, the raw probit vectors, per-pair answer
distances for paired query sets, or the full answer-similarity matrix.
Fingerprints built from the same query set can be compared with a
distance, and the distances of a pool of unrelated-model fingerprints
calibrate the detection threshold at a target false-positive rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AccessInsufficient,
    EmptyCalibrationPool,
    IncomparableFingerprints,
    PairingRequired,
)
from .samplers import QuerySet

KINDS = ("raw_labels", "raw_probits", "pairwise", "listwise")
INNER_DISTANCES = ("cosine", "labels")

# Bytes in one stack of listwise (s, s) float64 payloads, 4 at s=100. On 2 x86_64 vCPUs the desk
# listwise family took 85 / 67 / 59 / 55 / 56 / 60 ms at 1 / 2 / 4 / 8 / 16 / 40 payloads a stack
# and its traced peak was 1.6 / 1.6 / 2.0 / 2.6 / 4.0 / 4.9 MB: past 4, time saved costs memory.
LISTWISE_STACK_BYTES = 320_000


def _row_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Dot product of each row pair on the last axis, one BLAS ``ddot`` per row as ``np.dot``."""
    return np.matmul(U[..., None, :], V[..., :, None])[..., 0, 0]


def cosine_rows(U, V) -> np.ndarray:
    """Row-wise ``1 - cos(u, v)`` of rows on the last axis; the leading axes broadcast.

    Identical rows (zero rows included) are at distance 0; a zero row
    against a nonzero one is at the maximal nonnegative-cone distance 1.
    Every entry is bit-equal to the scalar formula on that row pair.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    nu, nv = np.sqrt(_row_dots(U, U)), np.sqrt(_row_dots(V, V))
    with np.errstate(divide="ignore", invalid="ignore"):  # zero rows, overwritten below
        dist = 1.0 - _row_dots(U, V) / (nu * nv)
    # where, not maximum: a NaN distance clamps to 0 like Python's max(0.0, x)
    dist = np.where(dist > 0.0, dist, 0.0)
    dist[(nu == 0.0) | (nv == 0.0)] = 1.0
    dist[(U == V).all(axis=-1)] = 0.0
    return dist


@dataclass(frozen=True)
class Fingerprint:
    """Representation of one model's answers on one query set.

    Payload shape is tied to the kind: ``(s,)`` labels, ``(s, C)``
    probits, ``(s/2,)`` pair distances, or a symmetric ``(s, s)`` matrix.
    ``query_provenance`` records which sampler produced the queries;
    only fingerprints sharing it are comparable.
    """

    kind: str
    payload: np.ndarray
    query_provenance: dict
    n_queries: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fingerprint kind {self.kind!r}")
        payload = np.asarray(self.payload)
        s = self.n_queries
        if self.kind == "raw_labels":
            ok = payload.shape == (s,)
        elif self.kind == "raw_probits":
            ok = payload.ndim == 2 and payload.shape[0] == s
        elif self.kind == "pairwise":
            ok = s % 2 == 0 and payload.shape == (s // 2,)
        else:
            ok = payload.shape == (s, s)
        if not ok:
            raise ValueError(
                f"{self.kind} payload shape {payload.shape} inconsistent with s={s}"
            )
        payload = payload.copy()
        payload.setflags(write=False)
        object.__setattr__(self, "payload", payload)


def needs_probits(kind: str, inner_distance: str) -> bool:
    """Whether ``kind`` under ``inner_distance`` reads probit answers; all others read labels."""
    return kind == "raw_probits" or (kind != "raw_labels" and inner_distance == "cosine")


def _payloads(
    query_set: QuerySet, answers: np.ndarray, kind: str, inner_distance: str
) -> np.ndarray:
    """``represent``'s payload for each of K models' stacked answers, shape ``(K, ...)``.

    ``answers`` is ``(K, s)`` labels or ``(K, s, C)`` probits.  Every
    operation keeps to one model's slice, so each payload is bit-equal to
    building it from that model's answers alone.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown fingerprint kind {kind!r}")
    if inner_distance not in INNER_DISTANCES:
        raise ValueError(f"unknown inner distance {inner_distance!r}")
    K, s = answers.shape[0], query_set.size
    if answers.shape[1] != s:
        raise ValueError(f"got {answers.shape[1]} answers for {s} queries")
    probits = needs_probits(kind, inner_distance)
    if answers.ndim != 2 + probits:
        if probits:
            raise AccessInsufficient(f"{kind}/{inner_distance} needs probit answers, got labels")
        raise ValueError(f"{kind}/{inner_distance} needs label answers, got probits")

    if kind == "raw_labels":
        return answers.astype(np.int64)
    if kind == "raw_probits":
        return answers.astype(np.float64)
    if kind == "pairwise":
        if query_set.pairing is None:
            raise PairingRequired(
                "pairwise representation needs a pairing-producing sampler"
            )
        if 2 * len(query_set.pairing) != s:
            raise PairingRequired(
                f"pairwise representation needs s/2 pairs, query set has "
                f"{len(query_set.pairing)} for s={s}"
            )
        first, second = np.asarray(query_set.pairing, dtype=np.int64).reshape(-1, 2).T
        if not probits:
            return (answers[:, first] != answers[:, second]).astype(np.float64)
        C = answers.shape[2]
        pairs = cosine_rows(answers[:, first].reshape(-1, C), answers[:, second].reshape(-1, C))
        return pairs.reshape(K, -1)

    # listwise: full answer-similarity matrix, zero diagonal by definition
    if probits:
        norms = np.linalg.norm(answers, axis=2, keepdims=True)
        N = answers / np.where(norms == 0.0, 1.0, norms)
        M = N @ np.swapaxes(N, 1, 2)
        np.subtract(1.0, M, out=M)
        zero = norms[:, :, 0] == 0.0
        if zero.any():  # finite answers give 0 products with a zero row, so M is 1 there
            M[zero[:, :, None] & zero[:, None, :]] = 0.0  # but two zero answers agree
    else:
        M = (answers[:, :, None] != answers[:, None, :]).astype(np.float64)
    # M is exactly symmetric, so not symmetrized: matmul takes N @ N^T of one buffer to BLAS
    # syrk, which mirrors one triangle, and 1 - M, the zero fill and label tests keep that
    M.reshape(K, -1)[:, ::s + 1] = 0.0
    return M


def represent(
    query_set: QuerySet,
    answers: np.ndarray,
    kind: str,
    inner_distance: str = "cosine",
) -> Fingerprint:
    """Build a fingerprint from a model's answers on a query set.

    ``answers`` is a finite ``(s, C)`` probit matrix where ``needs_probits``
    holds and an ``(s,)`` label vector otherwise.  Pairwise representations
    additionally need the query set to carry a pairing covering half the budget.
    """
    payload = _payloads(query_set, np.asarray(answers)[None], kind, inner_distance)[0]
    return Fingerprint(kind, payload, dict(query_set.provenance), query_set.size)


def _check_comparable(a: Fingerprint, kind: str, provenance: dict, shape: tuple) -> None:
    """Raise ``IncomparableFingerprints`` unless ``a`` has this kind, provenance and shape."""
    if a.kind != kind or a.query_provenance != provenance:
        raise IncomparableFingerprints(
            f"kinds ({a.kind}, {kind}) or query provenances differ"
        )
    if a.payload.shape != shape:
        raise IncomparableFingerprints(
            f"payload shapes {a.payload.shape} and {shape} differ"
        )


def _distances(payload: np.ndarray, payloads: np.ndarray, kind: str) -> np.ndarray:
    """``fingerprint_distance`` from one payload to each of K stacked payloads, shape ``(K,)``.

    The victim's payload is broadcast against the stack, so its norm is taken once.
    Each row handed to ``cosine_rows`` is contiguous in memory, as a fingerprint's
    payload is: a strided row can take another BLAS kernel and move the last bits.
    """
    if kind == "raw_labels":
        return np.mean(payloads != payload, axis=1)
    if kind == "raw_probits":
        return np.mean(cosine_rows(payload, payloads), axis=1)
    return cosine_rows(payload.reshape(1, -1), payloads.reshape(len(payloads), 1, -1))[:, 0]


def fingerprint_distance(a: Fingerprint, b: Fingerprint) -> float:
    """Distance between two fingerprints of the same kind and query set.

    Raw labels compare by normalized Hamming distance, raw probits by the
    mean per-query cosine distance, and pairwise/listwise payloads by the
    cosine distance between their flattened payloads.
    """
    _check_comparable(a, b.kind, b.query_provenance, b.payload.shape)
    return float(_distances(a.payload, b.payload[None], a.kind)[0])


def fingerprint_distances(
    victim: Fingerprint, query_set: QuerySet, answers, kind: str, inner_distance: str
) -> list[float]:
    """``fingerprint_distance(victim, represent(query_set, a, kind, inner_distance))`` per ``a``.

    Answers of one shape are represented and compared as one stack, bit for
    bit as one at a time.  Listwise stacks are cut to at most
    ``LISTWISE_STACK_BYTES`` of ``(s, s)`` payloads.
    """
    provenance = dict(query_set.provenance)
    by_shape: dict[tuple, list[int]] = {}
    for i, a in enumerate(answers):
        by_shape.setdefault(np.shape(a), []).append(i)
    step = len(answers) if kind != "listwise" else max(
        1, LISTWISE_STACK_BYTES // (8 * max(1, query_set.size) ** 2))
    out = [0.0] * len(answers)
    for group in by_shape.values():
        for index in (group[i:i + step] for i in range(0, len(group), step)):
            payloads = _payloads(query_set, np.array([answers[i] for i in index]),
                                 kind, inner_distance)
            _check_comparable(victim, kind, provenance, payloads.shape[1:])
            for i, d in zip(index, _distances(victim.payload, payloads, kind).tolist()):
                out[i] = d
    return out


def quantile_threshold(distances, target_fpr: float) -> float:
    """Largest threshold flagging at most ``target_fpr`` of a pool, from its distances.

    ``distances`` are the pool members' fingerprint distances to the victim.
    The flag rule is ``distance < threshold  =>  stolen``, and at most
    ``target_fpr`` of the pool lies strictly below the returned threshold.
    """
    if not 0.0 <= target_fpr <= 1.0:
        raise ValueError("target_fpr must lie in [0, 1]")
    if len(distances) == 0:
        raise EmptyCalibrationPool("cannot calibrate against an empty pool")
    dists = np.sort(distances)
    m = dists.size
    allowed = int(target_fpr * m + 1e-9)
    if allowed >= m:
        return float(dists[-1]) + 1.0
    return float(dists[allowed])
