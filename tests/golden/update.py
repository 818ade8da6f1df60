"""Golden result tables: the desk benchmark's TPR and pair-statistics tables, committed.

    python tests/golden/update.py

rewrites every ``tests/golden/<table>.json`` from the package under ``src/``
and prints a unified diff of what moved.  ``tests/test_golden.py``
recomputes each table on the session ``desk_benchmark`` fixture and
compares it with its file, so a change that moves a result fails there
until the tables are rewritten and the change says which values moved.

Every table is computed on the desk benchmark (``default_benchmark_config``
at seed 0), over 5 runs at seed 0:

- the four scheme families of the perfbench ``evaluate`` workload;
- the perfbench ``cli`` workload's negative-into-adversarial chain (raw labels @100);
- ``budget_sweep(mistake_match_scheme(), ...)`` over budgets 10, 25, 50 and 100;
- ``pair_distance_report`` on both splits.

A report keeps its ``per_task``, ``aggregate`` and skip codes, and a pair
distance report its ``groups``, ``overlap`` and ``n_undefined``.  No score is
stored: a last-bit change in BLAS can move a score, and so a report digest,
without moving any TPR.
"""

from __future__ import annotations

import difflib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from modelprint.core import SPLITS  # noqa: E402
from modelprint.harness import (  # noqa: E402
    budget_sweep,
    build_benchmark,
    default_benchmark_config,
    evaluate,
    pair_distance_report,
)
from modelprint.schemes import mistake_match_scheme  # noqa: E402
from workloads import DESK, chain_scheme, families  # noqa: E402

SEED, N_RUNS = 0, 5
SWEEP_BUDGETS = (10, 25, 50, 100)


def _report(report) -> dict:
    skipped = [{k: s[k] for k in ("run", "victim", "error")} for s in report.skipped]
    return {"per_task": report.per_task, "aggregate": report.aggregate, "skipped": skipped}


def _evaluate(spec):
    return lambda bench: _report(evaluate(spec, bench, n_runs=N_RUNS, seed=SEED))


def _sweep(bench) -> dict:
    sweep = budget_sweep(mistake_match_scheme(), bench, SWEEP_BUDGETS, n_runs=N_RUNS, seed=SEED)
    return {str(budget): _report(report) for budget, report in sweep.reports.items()}


def _pair_distances(bench) -> dict:
    reports = {split: pair_distance_report(bench, split) for split in SPLITS}
    return {split: {"groups": r.groups, "overlap": r.overlap, "n_undefined": r.n_undefined}
            for split, r in reports.items()}


TABLES = {
    **{name: _evaluate(spec) for name, spec in families(DESK).items()},
    "chain_labels": _evaluate(chain_scheme(DESK)),
    "mistake_match_sweep": _sweep,
    "pair_distances": _pair_distances,
}


def text(name: str, bench) -> str:
    """Table ``name`` of ``bench`` as its file holds it."""
    return json.dumps(TABLES[name](bench), indent=1, sort_keys=True) + "\n"


def main() -> None:
    bench = build_benchmark(default_benchmark_config(seed=SEED))
    for name in TABLES:
        path = HERE / f"{name}.json"
        old = path.read_text().splitlines(True) if path.exists() else []
        new = text(name, bench)
        path.write_text(new)
        sys.stdout.writelines(difflib.unified_diff(old, new.splitlines(True),
                                                   f"a/{path.name}", f"b/{path.name}"))


if __name__ == "__main__":
    main()
