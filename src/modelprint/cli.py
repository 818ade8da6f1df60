"""Command-line interface: generate benchmarks, evaluate schemes, sweep budgets.

Every command is a pure function of its inputs on disk, its flags, and
its seed; reruns produce identical outputs.  Reports embed the resolved
run configuration and the toolkit version.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .core import read_json, write_csv
from .errors import EmptyEvaluationSet, ModelprintError
from .harness import (
    TPR_CSV_HEADER,
    BenchmarkConfig,
    budget_sweep,
    build_benchmark,
    evaluate,
    load_benchmark,
    pair_distance_report,
    save_benchmark,
)
from .schemes import SchemeSpec


def _at_least(lo: int, text: str) -> int:
    value = int(text)
    if value < lo:
        raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
    return value


def _seed(text: str) -> int:
    """The ``--seed`` type: a nonnegative integer, as ``SeedSequence`` needs."""
    return _at_least(0, text)


def _count(text: str) -> int:
    """The ``--budget`` and ``--runs`` type: a positive integer."""
    return _at_least(1, text)


def _budgets(text: str) -> list[int]:
    """The ``--budgets`` type: a nonempty strictly ascending comma-separated list of counts."""
    budgets = [_count(b) for b in text.split(",") if b.strip()]
    if not budgets:
        raise argparse.ArgumentTypeError("no budgets given")
    if any(a >= b for a, b in zip(budgets, budgets[1:])):
        raise argparse.ArgumentTypeError(f"must be ascending, got {text}")
    return budgets


def _load_scheme(path: Path) -> SchemeSpec:
    rec = read_json(path, ModelprintError)
    try:
        return SchemeSpec.from_record(rec)
    except (KeyError, TypeError, ValueError) as err:
        raise ModelprintError(f"{path}: invalid scheme spec: {err}")


def _skips(reports) -> tuple[int, int]:
    """How many of the reports' run x victim cells were skipped, and of how many."""
    return (sum(len(r.skipped) for r in reports),
            sum(r.n_runs * r.model_scale["n_victims"] for r in reports))


def _skip_line(reports) -> str:
    return "skipped {} of {} cells".format(*_skips(reports))


def _require_scored(reports) -> None:
    """Refuse a run whose every cell was skipped: its TPRs of 0.0 measure nothing."""
    skipped, cells = _skips(reports)
    if skipped == cells:
        raise EmptyEvaluationSet(f"all {cells} run x victim cells were skipped; "
                                 "the report holds no score")


def cmd_generate(args) -> int:
    config = BenchmarkConfig.from_record(read_json(args.config, ModelprintError))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    bench = build_benchmark(config)
    manifest = save_benchmark(bench, args.out)
    n_models = sum(
        1 + len(bench.stolen[v.model.identity]) + len(bench.unrelated[v.model.identity])
        for v in bench.victims
    )
    print(f"wrote {n_models} model files and {manifest}")
    return 0


def cmd_evaluate(args) -> int:
    bench = load_benchmark(args.benchmark)
    spec = _load_scheme(Path(args.scheme))
    if args.budget is not None:
        spec = replace(spec, budget=args.budget)
    stem = f"evaluate_{spec.label().replace('/', '-')}"
    prior = Path(args.out) / f"{stem}.json"
    if prior.exists():  # the label leaves out sampler params, so another scheme may own it
        try:
            same = SchemeSpec.from_record(read_json(prior, ModelprintError)["scheme"]) == spec
        except (ModelprintError, KeyError, TypeError, ValueError):
            same = False
        if not same:
            raise ModelprintError(f"{prior} holds no report of this scheme; use another --out")
    report = evaluate(
        spec,
        bench,
        n_runs=args.runs,
        seed=args.seed,
    )
    report.run_config["cli"] = {
        "benchmark": str(args.benchmark),
        "scheme": str(args.scheme),
    }
    jpath, cpath = report.save(args.out, stem=stem)
    spath = jpath.with_name(f"{stem}.pair_statistics.json")
    stats = pair_distance_report(bench, spec.seed_split).to_record()
    spath.write_text(json.dumps(stats, sort_keys=True, separators=(",", ":")) + "\n")
    for task in sorted(report.per_task):
        entry = report.per_task[task]
        print(f"{task}: tpr@{report.fpr_cap:g} = {entry['mean']:.3f} +- {entry['std']:.3f}")
    agg = report.aggregate["mean_over_tasks"]
    print(f"aggregate (mean over tasks): {agg['mean']:.3f} +- {agg['std']:.3f}")
    print(_skip_line([report]))
    print(f"wrote {jpath}, {cpath} and {spath}")
    _require_scored([report])
    return 0


def cmd_sweep(args) -> int:
    bench = load_benchmark(args.benchmark)
    specs = {}  # label -> (scheme file, spec); sweep.csv tells its rows apart by label
    for path in args.scheme:
        spec = _load_scheme(Path(path))
        if (label := spec.label()) in specs:
            raise ModelprintError(f"{specs[label][0]} and {path} share the scheme label "
                                  f"{label!r}, so their sweep.csv rows could not be told apart")
        specs[label] = path, spec
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid_path = out / "sweep.csv"
    reports = []
    with grid_path.open("w", newline="") as fh:
        write_csv(fh, [("scheme", *TPR_CSV_HEADER)])
        for label, (_, spec) in specs.items():

            def flush(budget, report, label=label, fh=fh):
                write_csv(fh, ((label, *row) for row in report.csv_rows()))
                fh.flush()

            sweep = budget_sweep(
                spec,
                bench,
                args.budgets,
                n_runs=args.runs,
                seed=args.seed,
                cell_callback=flush,
            )
            reports += sweep.reports.values()
            print(f"swept {label} over budgets {args.budgets}: "
                  f"{_skip_line(sweep.reports.values())}")
    print(f"wrote {grid_path}")
    _require_scored(reports)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelprint",
        description="Benchmark generation and fingerprint evaluation for "
        "model-stealing detection.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a benchmark from a JSON config")
    gen.add_argument("--config", required=True, help="benchmark config JSON")
    gen.add_argument("--out", required=True, help="output benchmark directory")
    gen.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    gen.set_defaults(fn=cmd_generate)

    ev = sub.add_parser("evaluate", help="run one scheme against a benchmark")
    ev.add_argument("--benchmark", required=True, help="benchmark directory")
    ev.add_argument("--scheme", required=True, help="scheme spec JSON")
    ev.add_argument("--budget", type=_count, default=None, help="query budget override")
    ev.add_argument("--runs", type=_count, default=5, help="number of seeded runs")
    ev.add_argument("--seed", type=_seed, default=0, help="root seed (runs use seed..seed+runs-1)")
    ev.add_argument("--out", required=True, help="report output directory")
    ev.set_defaults(fn=cmd_evaluate)

    sw = sub.add_parser("sweep", help="budget sweep for one or more schemes")
    sw.add_argument("--benchmark", required=True)
    sw.add_argument("--scheme", required=True, nargs="+", help="scheme spec JSON files")
    sw.add_argument("--budgets", type=_budgets, required=True,
                    help="comma-separated ascending budgets")
    sw.add_argument("--runs", type=_count, default=5)
    sw.add_argument("--seed", type=_seed, default=0)
    sw.add_argument("--out", required=True)
    sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ModelprintError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
