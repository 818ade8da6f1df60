"""Run one benchmark workload on the modelprint package under ``src/``.

    python3 perfbench/run.py --workload {build,evaluate,cli} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the workload is set up ``SETUP_REPEATS`` times (more
for a set-up quicker than ``SETUP_SECONDS`` in all), then rounds of its
operations repeat until ``--seconds`` have passed; the end-to-end metrics
are medians.  With ``--trace 1`` it runs one untraced
and one traced round (plus a traced set-up where the set-up does the
workload's training) and reports per-layer metrics; the traced pass does
a fixed amount of work, so its counters repeat exactly for one seed.

Detail lines go to stdout first: the environment, output digests, and the
per-part figures.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero, with
no result line, when the package is missing or too few rounds completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least this often and for at least this long, so that a
# cheap set-up still yields a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
E2E_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "evaluate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    src_loc = sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cli_workers": os.cpu_count() or 1,
        "machine": platform.machine(),
        "src_loc": src_loc,
    }


def complete_rounds(rounds: list[dict], parts: tuple[str, ...]) -> list[dict]:
    return [r for r in rounds if all(p in r for p in parts)]


def medians(rounds: list[dict], parts: tuple[str, ...]) -> dict[str, float]:
    return {p: statistics.median(r[p] for r in rounds) for p in parts}


def measure(workload, seconds: float):
    """Set-up repeats, then rounds for ``seconds``; returns (setups, rounds)."""
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round())
    return setups, rounds


def trace(workload, tally):
    """One untraced and one traced round; returns (untraced, traced, tracer)."""
    tracer = tracing.Tracer(run_id=lambda: tally.current)
    if workload.trace_setup:
        with tracing.installed(tracer):
            workload.setup()
    else:
        workload.setup()
    untraced = workload.round()
    with tracing.installed(tracer):
        traced = workload.traced_round()
    return untraced, traced, tracer


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(args, scale=None) -> dict:
    """Run the workload; print detail lines and return the result object."""
    import workloads  # imports modelprint, so only once src/ is on sys.path

    scale = scale or workloads.DESK
    tally = workloads.Tally()
    workdir = workloads.OUT / f"run-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](scale, args.seed, tally, workdir)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            untraced, traced, tracer = trace(workload, tally)
            rounds = complete_rounds([untraced, traced], workload.parts)
        else:
            setups, rounds = measure(workload, args.seconds)
            rounds = complete_rounds(rounds, workload.parts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"failed {problem}")
    for key, value in sorted(tally.digests.items()):
        print(f"digest {key} {value}")
    if len(rounds) < 1 + args.trace:
        raise RuntimeError(f"{len(rounds)} complete rounds of {args.workload}; too few")

    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
        units = tracing.per_layer_units()
        in_workers = metrics["harness.evaluate.cells_in_workers"]
        if in_workers:
            print(f"note {in_workers} evaluate cells were scored in pool workers "
                  "and are not traced")
        for run_id in dict.fromkeys(span[4] for span in tracer.spans):
            spanned = sum(end - start for _, start, end, parent, span_run in tracer.spans
                          if parent < 0 and span_run == run_id)
            print(f"layer {run_id} spanned_s {spanned!r} s")
            top = sorted(tracer.metrics(run_id).items(), key=lambda kv: -kv[1])
            for name, value in [kv for kv in top if kv[0].endswith("_s")][:3]:
                print(f"layer {run_id} {name} {value!r} s")
        workloads.OUT.mkdir(exist_ok=True)
        spans = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(tracer, spans)
        print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        parts = medians(rounds, workload.parts)
        metrics = {
            "setup_s": statistics.median(setups),
            "round_s": statistics.median(sum(r.values()) for r in rounds),
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
        units = dict(E2E_UNITS)
        detail = dict(workload.details(parts))
        detail["ops_failed_frac"] = (tally.failed / tally.attempted, "failed/attempted")
        print(f"rounds {len(rounds)} setups {len(setups)} (medians reported)")
        for name, (value, unit) in detail.items():
            print(f"metric {name} {value!r} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "modelprint" / "__init__.py").is_file():
        print(f"perfbench: no modelprint package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run(args)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
