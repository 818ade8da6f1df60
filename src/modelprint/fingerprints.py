"""Fingerprint representations, distances, and threshold calibration.

A fingerprint is a compact representation of a model's answers on a
query set: the raw labels, the raw probit vectors, per-pair answer
distances for paired query sets, or the full answer-similarity matrix.
Fingerprints built from the same query set can be compared with a
distance, and a pool of unrelated-model fingerprints calibrates the
detection threshold at a target false-positive rate.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AccessInsufficient,
    CorruptFingerprint,
    EmptyCalibrationPool,
    IncomparableFingerprints,
    PairingRequired,
)
from .samplers import QuerySet

KINDS = ("raw_labels", "raw_probits", "pairwise", "listwise")
INNER_DISTANCES = ("cosine", "labels")


def _row_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, one BLAS ``ddot`` per row as ``np.dot`` does."""
    return np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0]


def cosine_rows(U, V) -> np.ndarray:
    """Row-wise ``1 - cos(u, v)`` of two ``(n, C)`` arrays, as shape ``(n,)``.

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
    dist[(U == V).all(axis=1)] = 0.0
    return dist


def cosine_distance(u, v) -> float:
    """``cosine_rows`` of two vectors, each flattened to one row."""
    return float(cosine_rows(np.ravel(u)[None], np.ravel(v)[None])[0])


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


def represent(
    query_set: QuerySet,
    answers: np.ndarray,
    kind: str,
    inner_distance: str = "cosine",
) -> Fingerprint:
    """Build a fingerprint from a model's answers on a query set.

    ``answers`` is a ``(s,)`` label vector or an ``(s, C)`` probit matrix,
    matching what the representation consumes: probit payloads and the
    cosine inner distance need probit answers, the label inner distance
    needs label answers.  Pairwise representations additionally need the
    query set to carry a pairing covering half the budget.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown fingerprint kind {kind!r}")
    if inner_distance not in INNER_DISTANCES:
        raise ValueError(f"unknown inner distance {inner_distance!r}")
    answers = np.asarray(answers)
    s = query_set.size
    if answers.shape[0] != s:
        raise ValueError(f"got {answers.shape[0]} answers for {s} queries")
    prov = dict(query_set.provenance)

    if kind == "raw_labels":
        if answers.ndim != 1:
            raise ValueError("raw label fingerprints need a 1-d label vector")
        return Fingerprint("raw_labels", answers.astype(np.int64), prov, s)

    if kind == "raw_probits":
        if answers.ndim != 2:
            raise AccessInsufficient(
                "raw probit fingerprints need probit answers, got labels"
            )
        return Fingerprint("raw_probits", answers.astype(np.float64), prov, s)

    probit_based = inner_distance == "cosine"
    if probit_based and answers.ndim != 2:
        raise AccessInsufficient(
            "cosine inner distance needs probit answers, got labels"
        )
    if not probit_based and answers.ndim != 1:
        raise ValueError("label inner distance needs a 1-d label vector")

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
        if probit_based:
            payload = cosine_rows(answers[first], answers[second])
        else:
            payload = (answers[first] != answers[second]).astype(np.float64)
        return Fingerprint("pairwise", payload, prov, s)

    # listwise: full answer-similarity matrix, zero diagonal by definition
    if probit_based:
        norms = np.linalg.norm(answers, axis=1, keepdims=True)
        safe = np.where(norms == 0.0, 1.0, norms)
        N = answers / safe
        M = 1.0 - N @ N.T
        zero = (norms == 0.0).ravel()
        if zero.any():
            M[zero, :] = 1.0
            M[:, zero] = 1.0
            M[np.ix_(zero, zero)] = 0.0
    else:
        M = (answers[:, None] != answers[None, :]).astype(np.float64)
    M = 0.5 * (M + M.T)
    np.fill_diagonal(M, 0.0)
    return Fingerprint("listwise", M, prov, s)


def fingerprint_distance(a: Fingerprint, b: Fingerprint) -> float:
    """Distance between two fingerprints of the same kind and query set.

    Raw labels compare by normalized Hamming distance, raw probits by the
    mean per-query cosine distance, and pairwise/listwise payloads by the
    cosine distance between their flattened payloads.
    """
    if a.kind != b.kind or a.query_provenance != b.query_provenance:
        raise IncomparableFingerprints(
            f"kinds ({a.kind}, {b.kind}) or query provenances differ"
        )
    if a.payload.shape != b.payload.shape:
        raise IncomparableFingerprints(
            f"payload shapes {a.payload.shape} and {b.payload.shape} differ"
        )
    if a.kind == "raw_labels":
        return float(np.mean(a.payload != b.payload))
    if a.kind == "raw_probits":
        return float(np.mean(cosine_rows(a.payload, b.payload)))
    return cosine_distance(a.payload, b.payload)


def calibrate_threshold(victim_fp: Fingerprint, pool, target_fpr: float) -> float:
    """Largest threshold flagging at most ``target_fpr`` of the pool.

    ``pool`` is any iterable of fingerprints comparable with the victim's.
    The flag rule is ``distance < threshold  =>  stolen``, and at most
    ``target_fpr`` of the pool lies strictly below the returned threshold.
    """
    return quantile_threshold(
        [fingerprint_distance(victim_fp, fp) for fp in pool], target_fpr
    )


def quantile_threshold(distances, target_fpr: float) -> float:
    """``calibrate_threshold`` on the pool members' distances to the victim."""
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


# ---------------------------------------------------------------------------
# Serialization: JSON header followed by the raw little-endian payload.
# ---------------------------------------------------------------------------

_FP_MAGIC = b"FPR1"


def save_fingerprint(fp: Fingerprint, path) -> None:
    header = json.dumps(
        {
            "kind": fp.kind,
            "n_queries": fp.n_queries,
            "shape": list(fp.payload.shape),
            "dtype": fp.payload.dtype.str,
            "query_provenance": fp.query_provenance,
        },
        sort_keys=True,
    ).encode()
    with Path(path).open("wb") as fh:
        fh.write(_FP_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(fp.payload).tobytes())


def load_fingerprint(path) -> Fingerprint:
    """Inverse of ``save_fingerprint``; any other byte string raises ``CorruptFingerprint``."""
    raw = Path(path).read_bytes()
    if raw[:4] != _FP_MAGIC or len(raw) < 8 or len(raw) < 8 + struct.unpack_from("<I", raw, 4)[0]:
        raise CorruptFingerprint(f"{path}: not a fingerprint file, or cut inside its header")
    offset = 8 + struct.unpack_from("<I", raw, 4)[0]
    try:
        header = json.loads(raw[8:offset])
        kind, n_queries, shape, provenance = (
            header[key] for key in ("kind", "n_queries", "shape", "query_provenance")
        )
        dtype = np.dtype(header["dtype"])
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        raise CorruptFingerprint(f"{path}: bad header: {err!r}") from err
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
            and type(n_queries) is int and isinstance(provenance, dict) and dtype.kind in "biuf"):
        raise CorruptFingerprint(f"{path}: header has a field of the wrong type or dtype {dtype}")
    size = math.prod(shape)
    if len(raw) - offset != size * dtype.itemsize:
        raise CorruptFingerprint(f"{path}: payload is {len(raw) - offset} bytes, "
                                 f"shape {shape} of {dtype} needs {size * dtype.itemsize}")
    payload = np.frombuffer(raw, dtype, size, offset).reshape(shape)
    try:
        return Fingerprint(kind, payload, provenance, n_queries)
    except ValueError as err:
        raise CorruptFingerprint(f"{path}: {err}") from err
