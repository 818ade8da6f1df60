"""Build the desk benchmark and evaluate schemes on it.

The benchmark is a triplet: victims, per-victim stolen models (direct
leaks, compressions, finetunes, extractions), and per-victim unrelated
models.  Evaluation scores every pair over seeded runs, sweeps the score
threshold into a ROC with per-victim averaging, and reports the true
positive rate at a 5% false-positive cap.
"""

import time

import modelprint as mp
from modelprint.harness import default_benchmark_config, pair_distance_report
from modelprint.schemes import SchemeSpec, mistake_match_scheme
from modelprint.samplers import UniformSampler

start = time.time()
bench = mp.build_benchmark(default_benchmark_config(seed=0))
n_models = sum(
    1 + len(bench.stolen[v.model.identity]) + len(bench.unrelated[v.model.identity])
    for v in bench.victims
)
print(f"built {n_models} models in {time.time() - start:.0f}s; "
      f"tasks: {', '.join(bench.tasks)}\n")

# how hard is this benchmark? look at the conditioned-Hamming distributions
distances = pair_distance_report(bench)
print(f"{'group':20s} {'mean d_c':>9s} {'std':>6s} {'pairs':>6s}")
for group, entry in distances.groups.items():
    print(f"{group:20s} {entry['mean']:9.3f} {entry['std']:6.3f} {entry['n']:6d}")
print(f"positive pairs above the negative 5th percentile: {distances.overlap:.0%}\n")

schemes = {
    "baseline (negative/labels)": mistake_match_scheme(budget=100),
    "uniform/labels": SchemeSpec(
        sampler=UniformSampler(), representation="raw_labels",
        inner_distance="labels", budget=100,
    ),
}
for name, spec in schemes.items():
    report = mp.evaluate(spec, bench, n_runs=5, seed=0)
    print(f"{name} @ budget 100, mean tpr@5% over 5 runs:")
    for task in sorted(report.per_task):
        entry = report.per_task[task]
        print(f"  {task:20s} {entry['mean']:.2f} +- {entry['std']:.2f}")
    agg = report.aggregate["mean_over_tasks"]
    print(f"  {'-> aggregate':20s} {agg['mean']:.2f} +- {agg['std']:.2f}\n")

print("Leak-style tasks (same/quantize/finetune/prune) are solved; the")
print("extraction tasks are where schemes actually differ.")
