"""Model-stealing detection toolkit.

Builds classifier fingerprints from three interchangeable parts (query
sampling, answer representation, detection), provides a mistake-matching
majority-vote baseline with one-sided error, and evaluates schemes on
reproducible benchmarks of victim / stolen / unrelated model triplets.
"""

__version__ = "0.1.0"

from .core import (
    Access,
    Classifier,
    FunctionClassifier,
    LabeledDataset,
    LookupClassifier,
    PairStats,
    accuracy,
    conditioned_hamming,
    pair_stats,
)
from .tinylearn import (
    LinearClassifier,
    MLPClassifier,
    MLPSpec,
    SyntheticTaskSpec,
    TrainConfig,
    generate_task,
    load_weights,
    save_weights,
    train,
)
from .variants import (
    TaskTag,
    extract,
    finetune,
    prune,
    quantize,
    same_copy,
    transfer,
    unrelated,
)
from .samplers import (
    AdversarialSampler,
    ChainSampler,
    NegativeSampler,
    QuerySet,
    Subsampler,
    UniformSampler,
    projected_gradient_ascent,
)
from .fingerprints import (
    Fingerprint,
    fingerprint_distance,
    quantile_threshold,
    represent,
)
from .schemes import (
    DetectorSpec,
    FingerprintScheme,
    SchemeSpec,
    mistake_match_scheme,
    mistake_match_test,
    assemble_scheme,
    standard_scheme_grid,
)
from .harness import (
    BenchmarkConfig,
    BenchmarkTriplet,
    EvalReport,
    PairScore,
    RocCurve,
    budget_sweep,
    build_benchmark,
    default_benchmark_config,
    derive_seed,
    evaluate,
    load_benchmark,
    pair_distance_report,
    roc_curve,
    save_benchmark,
    tpr_at_fpr,
    tpr_fpr_at_threshold,
)
