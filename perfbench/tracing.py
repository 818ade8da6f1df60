"""In-memory span tracer installed around modelprint's public functions.

The tracer lives entirely in the benchmark: ``installed(tracer)`` replaces
each traced name where the package looks it up (``harness.train`` and
``variants.train`` are two lookups of one function) with a wrapper that
records a span and bumps counters, and restores the originals on exit.
Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, run]``; ``parent`` is the index of
the enclosing span or -1, and ``run`` names the benchmark operation that
caused it.  Spans stay in memory until ``write_spans`` at the end of a run.
Calls made inside forked pool workers pass straight through, so cells
scored by ``evaluate(workers > 1)`` are not traced.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import time
from collections import Counter

# (span, kind) of every traced span the per-layer figures report.  A span
# metric is "<span>.self_s" (duration minus time covered by child spans)
# or "<span>.total_s" (outermost duration), with "<span>.calls" beside it.
SPAN_METRICS = (
    ("tinylearn.train", "self"),
    ("tinylearn.continue_training", "self"),
    ("tinylearn.generate_task", "self"),
    ("tinylearn.save_weights", "self"),
    ("tinylearn.load_weights", "self"),
    ("variants.unrelated", "total"),
    ("variants.extract", "total"),
    ("variants.finetune", "total"),
    ("variants.prune", "total"),
    ("variants.quantize", "total"),
    ("core.predict", "self"),
    ("core.probits", "self"),
    ("core.pair_stats", "total"),
    ("samplers.sample", "self"),
    ("samplers.projected_gradient_ascent", "self"),
    ("fingerprints.fingerprint_distance", "self"),
    ("fingerprints.represent", "self"),
    ("schemes.fingerprint", "self"),
    ("harness.roc_curve", "self"),
    ("harness.evaluate", "self"),
    ("harness.save_benchmark", "total"),
    ("harness.load_benchmark", "total"),
    ("harness.build_benchmark", "self"),
    ("cli.generate", "total"),
    ("cli.evaluate", "total"),
    ("cli.sweep", "total"),
)

COUNT_METRICS = (
    "tinylearn.sgd_steps",
    "core.predict.rows",
    "core.probits.rows",
    *(
        f"core.queries.{side}.{kind}"
        for side in ("victim", "suspect")
        for kind in ("labels", "probits", "gradients")
    ),
    "samplers.pga.gradient_rows",
    "harness.roc_curve.scores_in",
    "harness.tpr_fpr_at_threshold.calls",
    "harness.evaluate.cells",
    "harness.evaluate.cells_skipped",
    "harness.evaluate.cells_in_workers",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name a traced pass emits, with its unit."""
    units = {}
    for name, kind in SPAN_METRICS:
        units[f"{name}.{kind}_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update((name, "count") for name in COUNT_METRICS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, run_id=lambda: ""):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.victims: set[str] = set()
        self.run_id = run_id
        self.pid = os.getpid()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id()])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += int(n)

    def metrics(self, run: str | None = None) -> dict[str, float]:
        """Per-layer figures: span self/total times and calls, plus counters.

        With ``run``, only the span figures of that operation, no counters.
        """
        selfs: Counter = Counter()
        totals: Counter = Counter()
        calls: Counter = Counter()
        figures = zip(self.spans, self_times(self.spans), outermost(self.spans))
        for (name, start, end, _, span_run), self_s, top in figures:
            if run is None or span_run == run:
                selfs[name] += self_s
                totals[name] += (end - start) if top else 0.0
                calls[name] += 1
        out: dict[str, float] = {}
        for name, kind in SPAN_METRICS:
            source = selfs if kind == "self" else totals
            out[f"{name}.{kind}_s"] = float(source[name])
            out[f"{name}.calls"] = calls[name]
        if run is None:
            out.update((name, self.counts[name]) for name in COUNT_METRICS)
        return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def outermost(spans) -> list[bool]:
    """Whether each span has no enclosing span of its own name."""
    out = []
    for name, _, _, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Write the spans as JSON lines: name, start, end, parent, run."""
    with open(path, "w") as fh:
        for name, start, end, parent, run in tracer.spans:
            record = {"name": name, "start": start, "end": end, "parent": parent, "run": run}
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Counter hooks: called after the wrapped function returns, with its
# arguments and result.
# ---------------------------------------------------------------------------


def _arguments(fn):
    """Map a call's (args, kwargs) to ``fn``'s parameter names, defaults applied."""
    signature = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _query_hook(kind: str, rows_metric: str | None = None):
    def hook(tracer, args, kwargs, out):
        side = "victim" if args[0].identity in tracer.victims else "suspect"
        tracer.count(f"core.queries.{side}.{kind}", len(out))
        if rows_metric is not None:
            tracer.count(rows_metric, len(out))

    return hook


def _sgd_hook(fn, victim: bool = False):
    arguments = _arguments(fn)

    def hook(tracer, args, kwargs, out):
        bound = arguments(args, kwargs)
        cfg = bound["cfg"]
        n = len(bound["dataset"])
        tracer.count("tinylearn.sgd_steps", cfg.epochs * math.ceil(n / cfg.batch_size))
        if victim:
            tracer.victims.add(out.identity)

    return hook


def _pga_hook(fn):
    arguments = _arguments(fn)

    def hook(tracer, args, kwargs, out):
        bound = arguments(args, kwargs)
        tracer.count("samplers.pga.gradient_rows", len(bound["X"]) * int(bound["steps"]))

    return hook


def _evaluate_hook(fn):
    arguments = _arguments(fn)

    def hook(tracer, args, kwargs, out):
        cells = out.n_runs * out.model_scale["n_victims"]
        tracer.count("harness.evaluate.cells", cells)
        tracer.count("harness.evaluate.cells_skipped", len(out.skipped))
        if arguments(args, kwargs)["workers"] > 1:
            tracer.count("harness.evaluate.cells_in_workers", cells)

    return hook


def _roc_hook(tracer, args, kwargs, out):
    tracer.count("harness.roc_curve.scores_in", len(args[0]))


def _threshold_hook(tracer, args, kwargs, out):
    tracer.count("harness.tpr_fpr_at_threshold.calls")


def _victims_hook(tracer, args, kwargs, out):
    tracer.victims.update(v.model.identity for v in out.victims)


def patch_points():
    """(owner, attribute, span name or None, hook) for every traced lookup.

    A ``None`` span name counts through the hook without recording a span,
    for calls too frequent or too small to time.
    """
    from modelprint import cli, core, fingerprints, harness, samplers, schemes
    from modelprint import tinylearn, variants

    pga_hook = _pga_hook(samplers.projected_gradient_ascent)
    evaluate_hook = _evaluate_hook(harness.evaluate)
    points = [
        (harness, "train", "tinylearn.train", _sgd_hook(tinylearn.train, victim=True)),
        (variants, "train", "tinylearn.train", _sgd_hook(tinylearn.train)),
        (
            variants,
            "continue_training",
            "tinylearn.continue_training",
            _sgd_hook(tinylearn.continue_training),
        ),
        (harness, "generate_task", "tinylearn.generate_task", None),
        (harness, "save_weights", "tinylearn.save_weights", None),
        (harness, "load_weights", "tinylearn.load_weights", None),
        (harness, "unrelated", "variants.unrelated", None),
        (harness, "extract", "variants.extract", None),
        (harness, "finetune", "variants.finetune", None),
        (harness, "prune", "variants.prune", None),
        (harness, "quantize", "variants.quantize", None),
        (core.Classifier, "predict", "core.predict", _query_hook("labels", "core.predict.rows")),
        (core.Classifier, "probits", "core.probits", _query_hook("probits", "core.probits.rows")),
        (harness, "pair_stats", "core.pair_stats", None),
        (samplers, "projected_gradient_ascent", "samplers.projected_gradient_ascent", pga_hook),
        (variants, "projected_gradient_ascent", "samplers.projected_gradient_ascent", pga_hook),
        (harness, "fingerprint_distance", "fingerprints.fingerprint_distance", None),
        (schemes, "fingerprint_distance", "fingerprints.fingerprint_distance", None),
        (fingerprints, "fingerprint_distance", "fingerprints.fingerprint_distance", None),
        (schemes, "represent", "fingerprints.represent", None),
        (schemes.FingerprintScheme, "fingerprint", "schemes.fingerprint", None),
        (harness, "roc_curve", "harness.roc_curve", _roc_hook),
        (harness, "tpr_fpr_at_threshold", None, _threshold_hook),
        (harness, "evaluate", "harness.evaluate", evaluate_hook),
        (cli, "evaluate", "harness.evaluate", evaluate_hook),
        (harness, "build_benchmark", "harness.build_benchmark", _victims_hook),
        (cli, "build_benchmark", "harness.build_benchmark", _victims_hook),
        (cli, "save_benchmark", "harness.save_benchmark", None),
        (cli, "load_benchmark", "harness.load_benchmark", _victims_hook),
        (cli, "cmd_generate", "cli.generate", None),
        (cli, "cmd_evaluate", "cli.evaluate", None),
        (cli, "cmd_sweep", "cli.sweep", None),
    ]
    for cls in (core.Classifier, tinylearn.MLPClassifier, tinylearn.LinearClassifier):
        points.append((cls, "xent_input_gradient", None, _query_hook("gradients")))
    for cls in samplers.SAMPLER_KINDS.values():
        points.append((cls, "sample", "samplers.sample", None))
    return points


def _wrap(tracer: Tracer, fn, span: str | None, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != tracer.pid:  # a forked pool worker: spans would be lost
            return fn(*args, **kwargs)
        if span is None:
            out = fn(*args, **kwargs)
        else:
            index = tracer.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, out)
        return out

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced lookup through ``tracer`` for the ``with`` body."""
    saved = []
    try:
        for owner, attr, span, hook in patch_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, span, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
