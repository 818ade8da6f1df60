"""Smoke test of the benchmark on the tiny config.

    python3 -m pytest perfbench -q

Runs every workload once untraced and twice traced, and checks that each
emits every metric BENCHMARK.json names, with its unit, that every output
check passes, and that the traced counters repeat exactly.  It also checks
the self-time arithmetic on a hand-built span tree.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Figures printed on "metric" lines, by workload, besides the gated ones.
DETAIL_METRICS = {
    "build": {"build.models_per_s": "models/s"},
    "evaluate": {
        f"eval.{name}.pairs_per_s": "pairs/s"
        for name in ("negative_labels", "adversarial_probits",
                     "subsample_pairwise", "uniform_listwise")
    },
    "cli": {f"cli.{c}_s": "s" for c in ("generate", "evaluate", "sweep")},
}


def units_of(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_matches_emitted_names():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()


def test_self_time_arithmetic():
    # root [0, 10] holds a [1, 4] and b [3, 6], which overlap on [3, 4];
    # a holds c [2, 3]; c holds a nested span of its own name, [2.5, 2.75]
    spans = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["b", 3.0, 6.0, 0, "r"],
        ["c", 2.0, 3.0, 1, "r"],
        ["c", 2.5, 2.75, 3, "r"],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.75, 0.25])
    assert tracing.outermost(spans) == [True, True, True, True, False]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(name, capsys):
    args = run.parse_args(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = run.run(args, scale=workloads.TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units_of(result["metrics"]) == run.E2E_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {
        line.split()[1]: line.split()[3]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("metric ")
    }
    assert printed == DETAIL_METRICS[name] | {"ops_failed_frac": "failed/attempted"}

    traced = []
    for _ in range(2):
        args.trace = 1
        result = run.run(args, scale=workloads.TINY)
        assert result["correct"] and result["failed"] == 0
        assert units_of(result["metrics"]) == tracing.per_layer_units()
        traced.append({
            k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"
        })
    assert traced[0] == traced[1]
