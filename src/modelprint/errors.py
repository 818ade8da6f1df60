"""Exception hierarchy.

Every toolkit error carries a stable machine-readable ``code`` so that
callers (and the CLI) can branch on failure modes without parsing
messages.
"""

from __future__ import annotations


class ModelprintError(Exception):
    """Base class for all toolkit errors."""

    code = "modelprint-error"

    def __str__(self) -> str:  # noqa: D105
        msg = super().__str__()
        return f"[{self.code}] {msg}" if msg else f"[{self.code}]"


class EmptyEvaluationSet(ModelprintError):
    code = "empty-evaluation-set"


class InfeasibleTask(ModelprintError):
    code = "infeasible-task"


class TrainingDiverged(ModelprintError):
    code = "training-diverged"


class BadClass(ModelprintError):
    code = "bad-class"


class DegeneratePrune(ModelprintError):
    code = "degenerate-prune"


class DegenerateQuantization(ModelprintError):
    code = "degenerate-quantization"


class IncompatibleTask(ModelprintError):
    code = "incompatible-task"


class EmptyQueryPool(ModelprintError):
    code = "empty-query-pool"


class BudgetExceedsPool(ModelprintError):
    code = "budget-exceeds-pool"


class InsufficientNegatives(ModelprintError):
    """Raised when a sampler needs more misclassified points than exist.

    ``available`` reports how many negatives the pool actually holds so the
    caller can lower the budget or fall back to uniform sampling.
    """

    code = "insufficient-negatives"

    def __init__(self, msg: str = "", available: int = 0):
        super().__init__(msg)
        self.available = available


class GradientRequired(ModelprintError):
    code = "gradient-required"


class BudgetShapeMismatch(ModelprintError):
    code = "budget-shape-mismatch"


class PairingRequired(ModelprintError):
    code = "pairing-required"


class AccessInsufficient(ModelprintError):
    code = "access-insufficient"


class IncomparableFingerprints(ModelprintError):
    code = "incomparable-fingerprints"


class EmptyCalibrationPool(ModelprintError):
    code = "empty-calibration-pool"


class IncompatibleScheme(ModelprintError):
    code = "incompatible-scheme"


class EmptyTaskList(ModelprintError):
    code = "empty-task-list"


class EmptyPairSet(ModelprintError):
    code = "empty-pair-set"


class NonFiniteAnswer(ModelprintError):
    """A model answered with NaN or infinite probits, which no verdict may use."""

    code = "non-finite-answer"


class ManifestError(ModelprintError):
    code = "corrupt-manifest"


class UnsavableModel(ModelprintError):
    code = "unsavable-model"


class CorruptWeights(ModelprintError, ValueError):
    """A weight file that is not exactly what ``save_weights`` writes."""

    code = "corrupt-weights"
