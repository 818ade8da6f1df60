"""Classifier handles, labeled datasets, and disagreement statistics.

A classifier handle is a deterministic function from input vectors to
labels in ``{1..C}``, with a declared access level that gates richer
query types (top-k labels, probit vectors, input gradients).  All
probability-like quantities in this module are empirical frequencies
over an explicitly supplied finite evaluation set.
"""

from __future__ import annotations

import abc
import csv
import enum
import json
import numbers
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (
    AccessInsufficient,
    BadClass,
    EmptyEvaluationSet,
    NonFiniteAnswer,
)


class Access(enum.IntEnum):
    """Query access levels, ordered from weakest to strongest.

    Each level includes everything the weaker levels offer:
    ``GRADIENTS > PROBITS > TOP_K > LABELS``.
    """

    LABELS = 1
    TOP_K = 2
    PROBITS = 3
    GRADIENTS = 4


class Classifier(abc.ABC):
    """A queryable, deterministic classifier.

    Every public query is defined here: it checks the access level, shapes the batch,
    checks labels against ``{1..C}``, calls a subclass hook and raises
    ``NonFiniteAnswer`` on a NaN or inf answer.  A handle implements ``_predict`` (labels
    only), ``_probits`` (probit access) or ``_vjp`` (logits, probits and both input
    gradients, each derived here from the one hook).  Top-k ties are broken by ascending
    label index.  Repeated queries on the same batch return identical answers, but a
    point answered in another batch may differ in its last bits: BLAS treats a row by
    where it falls in the batch, and numpy sends a one-row product through gemv.
    """

    def __init__(
        self,
        identity: str,
        num_classes: int,
        input_dim: int,
        access: Access,
        tag=None,
    ):
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        self.identity = str(identity)
        self.num_classes = int(num_classes)
        self.input_dim = int(input_dim)
        self.access = Access(access)
        self.tag = tag

    # -- access plumbing ---------------------------------------------------

    def _require(self, level: Access, what: str) -> None:
        if self.access < level:
            raise AccessInsufficient(
                f"{self.identity}: {what} needs {level.name} access, handle "
                f"grants {self.access.name}"
            )

    def _as_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.input_dim:
            raise ValueError(
                f"{self.identity}: expected points of dimension "
                f"{self.input_dim}, got {X.shape[1]}"
            )
        return X

    # -- queries -----------------------------------------------------------

    def predict(self, X, blocks: int = 1) -> np.ndarray:
        """Labels in ``{1..C}`` for a batch of points, shape ``(n,)``.

        ``X`` may hold ``blocks`` equal query sets, each answered bit for bit as if alone.
        """
        self._require(Access.LABELS, "label queries")
        return self._blocks(self._predict, self._as_batch(X), blocks)

    def top_k(self, X, k: int) -> np.ndarray:
        """The ``k`` largest-probit labels per point, shape ``(n, k)``.

        Ties are broken by ascending label index.
        """
        self._require(Access.TOP_K, "top-k queries")
        if not 1 <= k <= self.num_classes:
            raise BadClass(f"k must be in 1..{self.num_classes}, got {k}")
        P = self._finite(self._probits(self._as_batch(X)), "probits")
        return np.argsort(-P, axis=1, kind="stable")[:, :k].astype(np.int64) + 1

    def probits(self, X, blocks: int = 1) -> np.ndarray:
        """Probability vectors, shape ``(n, C)``; rows are >= 0 and sum to 1.

        ``blocks`` is as in ``predict``.
        """
        self._require(Access.PROBITS, "probit queries")
        return self._finite(self._blocks(self._probits, self._as_batch(X), blocks), "probits")

    def logits(self, X) -> np.ndarray:
        """Raw logits, shape ``(n, C)``; same access level as probits."""
        self._require(Access.PROBITS, "logit queries")
        return self._finite(self._vjp(self._as_batch(X))[0], "logits")

    def input_gradient(self, x, label: int) -> np.ndarray:
        """Gradient of the logit for ``label`` with respect to the input."""
        self._require(Access.GRADIENTS, "gradient queries")
        x = self._as_batch(np.reshape(x, (1, -1)))
        (label,) = self._labels(label)
        _, pullback = self._vjp(x)
        return self._finite(pullback(one_hot([label], self.num_classes))[0], "input gradients")

    def xent_input_gradient(self, X, labels, blocks: int = 1) -> np.ndarray:
        """Per-point input gradient of cross-entropy against ``labels``, shape ``(n, d)``;
        ``blocks`` is as in ``predict``, with ``labels`` split alongside ``X``."""
        self._require(Access.GRADIENTS, "gradient queries")
        X, labels = self._as_batch(X), self._labels(labels)
        grads = self._blocks(self._xent_gradient, X, blocks, labels)
        return self._finite(grads, "input gradients")

    def _xent_gradient(self, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Cross-entropy's input gradients: ``softmax(logits) - one_hot(labels)`` pulled back."""
        logits, pullback = self._vjp(X)
        D = softmax(logits)
        D -= one_hot(labels.ravel(), self.num_classes).reshape(D.shape)
        return pullback(D)

    def _labels(self, labels) -> np.ndarray:
        """``labels`` as an int64 vector; ``BadClass`` names the first outside 1..C."""
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        bad = (labels < 1) | (labels > self.num_classes)
        if bad.any():
            raise BadClass(f"class index {labels[bad][0]} out of range 1..{self.num_classes}")
        return labels

    # True where the hooks answer a stack (blocks, n, d) with one BLAS product per block
    _stacks_blocks = False

    def _blocks(self, hook, X: np.ndarray, blocks: int, *rows) -> np.ndarray:
        """``hook``'s answers to ``blocks`` equal row blocks of ``X``, each as if it were alone;
        each array in ``rows`` (one entry per point) is split into the same blocks."""
        if blocks == 1:
            return hook(X, *rows)
        if blocks < 1 or len(X) % blocks:
            raise ValueError(f"{len(X)} points do not split into {blocks} equal blocks")
        split = (X.reshape(blocks, -1, X.shape[1]), *(r.reshape(blocks, -1) for r in rows))
        if not self._stacks_blocks:
            return np.concatenate([hook(*block) for block in zip(*split)])
        out = hook(*split)
        return out.reshape(len(X), *out.shape[2:])

    def _finite(self, A: np.ndarray, what: str) -> np.ndarray:
        """``A``, or ``NonFiniteAnswer`` if any entry is NaN or inf."""
        if not np.isfinite(A).all():
            raise NonFiniteAnswer(f"{self.identity}: {what} hold NaN or inf")
        return A

    # -- subclass hooks ----------------------------------------------------

    def _predict(self, X: np.ndarray) -> np.ndarray:
        # argmax picks the lowest index on ties, matching the top-k rule
        return np.argmax(self._finite(self._probits(X), "probits"), axis=-1).astype(np.int64) + 1

    def _probits(self, X: np.ndarray) -> np.ndarray:
        return softmax(self._vjp(X)[0])

    def _vjp(self, X: np.ndarray):
        """The logits at ``X``, ``(..., n, C)``, and a pullback that maps a cotangent on them,
        an array of their shape, to the input gradients ``(..., n, d)``."""
        raise AccessInsufficient(f"{self.identity}: handle answers no logit queries")

    def __repr__(self) -> str:  # noqa: D105
        return (
            f"{type(self).__name__}({self.identity!r}, C={self.num_classes}, "
            f"d={self.input_dim}, access={self.access.name})"
        )


class FunctionClassifier(Classifier):
    """Label-only handle wrapping a vectorized labeling function.

    ``fn`` maps an ``(n, d)`` array to ``(n,)`` labels in ``{1..C}``.
    Useful for constructed pairs in tests and demos.
    """

    def __init__(self, fn, num_classes: int, input_dim: int, identity: str = "fn"):
        super().__init__(identity, num_classes, input_dim, Access.LABELS)
        self._fn = fn

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self._fn(X), dtype=np.int64).reshape(-1)
        if out.shape[0] != X.shape[0]:
            raise ValueError("labeling function returned wrong batch size")
        return out


class LookupClassifier(Classifier):
    """Exact-point lookup table, e.g. a dataset's ground truth viewed as a model.

    Probits are one-hot on the stored label.  Unknown points raise
    ``KeyError``; this handle only makes sense on a fixed finite space.
    """

    def __init__(self, points, labels, num_classes: int, identity: str = "lookup"):
        points = np.asarray(points, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        super().__init__(identity, num_classes, points.shape[1], Access.PROBITS)
        self._table = {
            p.tobytes(): int(l) for p, l in zip(points, labels)
        }

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.array([self._table[row.tobytes()] for row in X], dtype=np.int64)

    def _probits(self, X: np.ndarray) -> np.ndarray:
        return one_hot(self._predict(X), self.num_classes)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis.  The row max, one ``np.maximum`` per class column (3x as fast
    as ``max(axis=-1)`` over few classes), is exact: a max does not depend on order, and a
    zero max that differs in sign gives shifted logits of ±0, whose ``exp`` is 1.0 either way."""
    top = logits[..., 0]
    for c in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., c])
    Z = logits - top[..., None]
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=-1, keepdims=True)
    return Z


def one_hot(labels, num_classes: int) -> np.ndarray:
    """``(n, num_classes)`` float64 rows with a 1 at each label in ``{1..C}``."""
    labels = np.asarray(labels, dtype=np.int64)
    T = np.zeros((labels.size, num_classes))
    T[np.arange(labels.size), labels - 1] = 1.0
    return T


SPLITS = ("train", "test")


@dataclass(frozen=True)
class LabeledDataset:
    """Points with ground-truth concept labels.

    ``points`` is ``(n, d)`` float64 and ``labels`` is ``(n,)`` int64 with
    every value in ``{1..num_classes}``.  Row order is meaningful.
    """

    points: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if points.shape[0] != labels.shape[0]:
            raise ValueError("points and labels must have equal length")
        if labels.size and (labels.min() < 1 or labels.max() > self.num_classes):
            raise ValueError(
                f"labels must lie in 1..{self.num_classes}; "
                f"saw range {labels.min()}..{labels.max()}"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:  # noqa: D105
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def take(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.points[idx], self.labels[idx], self.num_classes)

    def as_lookup_classifier(self, identity: str = "concept") -> LookupClassifier:
        """The ground-truth concept on this point set, viewed as a model."""
        return LookupClassifier(self.points, self.labels, self.num_classes, identity)


@dataclass(frozen=True)
class PairStats:
    """Accuracy and disagreement statistics for a model pair on one set.

    ``delta_c`` is the disagreement rate restricted to points the first
    model misclassifies; it is ``None`` (undefined) when that model is
    perfect on the evaluation set, since the conditioning event is empty.
    """

    alpha: float
    alpha_prime: float
    delta: float
    delta_c: float | None
    n_eval: int

    @property
    def delta_c_defined(self) -> bool:
        return self.delta_c is not None

    def delta_c_lower_bound(self) -> float | None:
        """Lower bound (delta - (1 - alpha')) / (1 - alpha) on ``delta_c``.

        ``None`` when the first model is perfect (bound denominator is 0).
        """
        if self.alpha >= 1.0:
            return None
        return (self.delta - (1.0 - self.alpha_prime)) / (1.0 - self.alpha)


def _check_nonempty(data: LabeledDataset) -> None:
    if len(data) == 0:
        raise EmptyEvaluationSet("evaluation dataset has no points")


def accuracy(h: Classifier, data: LabeledDataset) -> float:
    """Fraction of points where the model's label equals the concept label."""
    _check_nonempty(data)
    return float(np.mean(h.predict(data.points) == data.labels))


def conditioned_hamming(
    h: Classifier, g: Classifier, data: LabeledDataset
) -> float | None:
    """Disagreement rate restricted to points where ``h`` errs.

    Returns ``None`` when ``h`` classifies the whole set correctly, since
    the conditioning event is empty.  Note this quantity is not symmetric
    in its model arguments.
    """
    return pair_stats(h, g, data).delta_c


def pair_stats(h: Classifier, g: Classifier, data: LabeledDataset) -> PairStats:
    """Bundle accuracy of both models, Hamming, and conditioned Hamming."""
    _check_nonempty(data)
    return label_pair_stats(h.predict(data.points), g.predict(data.points), data.labels)


def label_pair_stats(yh: np.ndarray, yg: np.ndarray, labels: np.ndarray) -> PairStats:
    """``pair_stats`` from the two models' labels and the concept labels.

    Lets a caller predict one model once and pair it with many others.
    """
    if len(labels) == 0:
        raise EmptyEvaluationSet("evaluation dataset has no points")
    wrong = yh != labels
    delta_c = float(np.mean(yh[wrong] != yg[wrong])) if wrong.any() else None
    return PairStats(
        alpha=float(np.mean(yh == labels)),
        alpha_prime=float(np.mean(yg == labels)),
        delta=float(np.mean(yh != yg)),
        delta_c=delta_c,
        n_eval=len(labels),
    )


# -- files: CSV rows out, JSON records in -------------------------------------


def write_csv(fh, rows) -> None:
    """Write ``rows`` to the text file ``fh``, opened with ``newline=""``, one line each.

    Lines end in ``\\n``.  A field holding a comma, a quote, a ``\\n`` or a ``\\r`` is
    quoted, and ``None`` is an empty field.
    """
    # Before Python 3.13 a writer quotes only the line breaks in its terminator, so it
    # writes "\r\n" and each row's last two characters become "\n".
    lf = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
    csv.writer(lf, lineterminator="\r\n").writerows(rows)


def read_json(path, error: type[Exception]):
    """The JSON value in the UTF-8 file at ``path``; ``error(message)`` if it cannot be read."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:  # missing, a directory, or below a file
        raise error(f"{path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise error(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from err


# -- records: the JSON form of configs, tags, schemes and samplers ----------

_NUMBERS = {"int": (numbers.Integral, "integral"), "float": (numbers.Real, "a number")}


def _check_number(annotation: str, value, where: str) -> None:
    """Refuse ``value`` unless it fits an ``int`` or ``float`` annotation (a tuple, ``None``)."""
    base = re.match(r"(?:tuple\[)?(\w+)", annotation)[1]
    if base not in _NUMBERS or (value is None and "None" in annotation):
        return
    kind, what = _NUMBERS[base]
    items = value if "tuple[" in annotation and isinstance(value, list | tuple) else [value]
    if not all(isinstance(v, kind) and not isinstance(v, bool) for v in items):
        raise ValueError(f"{where} must be {what}, got {value!r}")
    if base == "float" and not all(abs(v) <= sys.float_info.max for v in items):
        raise ValueError(f"{where} must be finite, got {value!r}")


def from_record(cls, rec, where: str = "", **built):
    """The ``cls`` that JSON ``rec`` describes: unknown keys refused, omitted ones defaulted.

    ``int`` and ``float`` fields must hold integers and finite numbers.  ``built[name](value,
    where)`` builds a nested record; ``where`` is the dotted path that prefixes messages,
    also those of a ``ValueError`` or ``TypeError`` that ``cls`` raises.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"{where.rstrip('.') or cls.__name__} must be a JSON object, got {rec!r}")
    annotations = {f.name: f.type for f in fields(cls) if f.init}
    kwargs = {}
    for name, value in rec.items():
        if name not in annotations:  # quoted if it holds a line break or other control character
            shown = name if name.isprintable() else repr(name)
            raise ValueError(f"{where}{shown} is not a field of {cls.__name__}")
        if name in built:
            value = built[name](value, f"{where}{name}.")
        else:
            _check_number(annotations[name], value, f"{where}{name}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        if where and type(err) in (TypeError, ValueError):
            err.args = (f"{where.rstrip('. ')}: {err}",)
        raise
