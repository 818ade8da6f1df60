"""The benchmark's workloads: seeded inputs, timed operations and output checks.

Three workloads, each a class with ``setup`` (timed as ``setup_s``) and
``round`` (one pass over the workload's operations, returning seconds per
part).  ``build`` times ``build_benchmark`` on the desk config; ``evaluate``
times four scheme families on a prebuilt desk triplet; ``cli`` times the
``generate -> evaluate -> sweep`` chain as subprocesses.  Every operation
checks its output and records a sha256 of it, and a digest that changes
between repeats of one operation fails that operation.

The package is imported from ``src/`` next to this directory; the caller
puts it on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from modelprint import cli, harness
from modelprint.harness import BenchmarkConfig, default_benchmark_config
from modelprint.samplers import (
    AdversarialSampler,
    ChainSampler,
    NegativeSampler,
    Subsampler,
    UniformSampler,
)
from modelprint.schemes import SchemeSpec, mistake_match_scheme
from modelprint.tinylearn import MLPSpec, SyntheticTaskSpec, TrainConfig
from modelprint.variants import TaskTag

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# A subprocess that runs longer than this is killed and counts as failed,
# so that one run stays inside its 180 s limit.
COMMAND_TIMEOUT_S = 150


def tiny_config(seed: int) -> BenchmarkConfig:
    """A small, structurally complete benchmark (2 victims, 5 tasks, 3 unrelated)."""
    return BenchmarkConfig(
        task=SyntheticTaskSpec(
            family="blobs", num_classes=3, dim=4, n_train=150, n_test=300,
            label_noise=0.1, noise_scale=1.2,
        ),
        arch=MLPSpec(layer_widths=(4, 16, 3)),
        train=TrainConfig(epochs=25, learning_rate=0.05, batch_size=32),
        n_victims=2,
        stolen=(
            TaskTag("same"),
            TaskTag("prune", {"fraction": 0.25}),
            TaskTag("quantize", {"bits": 6}),
            TaskTag("finetune", {"epochs": 5}),
            TaskTag("label_extraction", {"pool_size": 100}),
        ),
        n_unrelated=3,
        seed=seed,
    )


@dataclass(frozen=True)
class Scale:
    """Input sizes of the workloads: the benchmark config and query budgets."""

    config: Callable[[int], BenchmarkConfig]
    budget: int
    negative_budget: int
    sweep_budgets: tuple[int, ...]
    n_runs: int


DESK = Scale(default_benchmark_config, 100, 50, (10, 24, 50, 100), 5)
TINY = Scale(tiny_config, 20, 10, (10, 20), 2)


def model_count(config: BenchmarkConfig) -> int:
    return config.n_victims * (1 + len(config.stolen) + config.n_unrelated)


def pair_count(config: BenchmarkConfig, n_runs: int) -> int:
    """Scored (victim, suspect) pairs in one evaluate call."""
    return n_runs * config.n_victims * (len(config.stolen) + config.n_unrelated)


def families(scale: Scale) -> dict[str, SchemeSpec]:
    """The four scheme families of the evaluate workload."""
    return {
        "negative_labels": mistake_match_scheme(scale.negative_budget),
        "adversarial_probits": SchemeSpec(
            sampler=AdversarialSampler(), representation="raw_probits",
            inner_distance="cosine", budget=scale.budget,
        ),
        "subsample_pairwise": SchemeSpec(
            sampler=Subsampler(k_variants=1), representation="pairwise",
            inner_distance="cosine", budget=scale.budget,
        ),
        "uniform_listwise": SchemeSpec(
            sampler=UniformSampler(), representation="listwise",
            inner_distance="cosine", budget=scale.budget,
        ),
    }


def chain_scheme(scale: Scale) -> SchemeSpec:
    return SchemeSpec(
        sampler=ChainSampler(NegativeSampler(), AdversarialSampler()),
        representation="raw_labels", inner_distance="labels", budget=scale.budget,
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Tally:
    """Operations attempted and failed in one run, with output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.current = "setup"

    def attempt(self, name: str, op):
        """Run one operation; a raise or failed check counts it as failed."""
        self.attempted += 1
        self.current = f"{self.attempted}:{name}"
        try:
            return op()
        except Exception as err:  # a failed operation is tallied, the run goes on
            self.failed += 1
            self.problems.append(f"{name}: {type(err).__name__}: {err}")
            return None

    def digest(self, key: str, value: str) -> None:
        """Record an output digest; it must equal the one from earlier repeats."""
        seen = self.digests.setdefault(key, value)
        check(seen == value, f"{key} changed between repeats: {seen} then {value}")


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def check_report(record: dict, expected_pairs: int) -> None:
    """The evaluate checks: no skipped cell, finite scores, same copies all found."""
    check(not record["skipped"], f"{len(record['skipped'])} cells skipped")
    check(len(record["scores"]) == expected_pairs,
          f"{len(record['scores'])} scores, expected {expected_pairs}")
    check(all(math.isfinite(s["score"]) for s in record["scores"]), "non-finite score")
    same = record["per_task"]["same"]["mean"]
    check(same == 1.0, f"per_task['same'] mean TPR is {same}, not 1.0")


def weights_digest(bench) -> str:
    h = hashlib.sha256()
    for victim in bench.victims:
        vid = victim.model.identity
        for model in [victim.model] + [m for m, _ in bench.stolen[vid] + bench.unrelated[vid]]:
            h.update(model.identity.encode())
            for W, b in model.weights:
                h.update(W.astype("<f8").tobytes())
                h.update(b.astype("<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# build: training dominates; nothing is sampled, fingerprinted or scored.
# ---------------------------------------------------------------------------


class Build:
    parts = ("build",)
    trace_setup = False

    def __init__(self, scale: Scale, seed: int, tally: Tally, workdir: Path):
        self.config = scale.config(seed)
        self.warmup = tiny_config(seed)
        self.tally = tally

    def setup(self) -> None:
        """A warm-up build of the tiny config."""
        harness.build_benchmark(self.warmup)

    def round(self) -> dict[str, float]:
        dt = self.tally.attempt("build_benchmark", self._build)
        return {} if dt is None else {"build": dt}

    traced_round = round

    def _build(self) -> float:
        dt, bench = timed(harness.build_benchmark, self.config)
        models = [v.model for v in bench.victims]
        for victim in bench.victims:
            vid = victim.model.identity
            models += [m for m, _ in bench.stolen[vid] + bench.unrelated[vid]]
            for model, tag in bench.stolen[vid]:
                if tag.method == "same":
                    check(
                        all(np.array_equal(W, V) and np.array_equal(b, c)
                            for (W, b), (V, c) in zip(model.weights, victim.model.weights)),
                        f"{model.identity} weights differ from {vid}",
                    )
        check(len(models) == model_count(self.config),
              f"{len(models)} models, expected {model_count(self.config)}")
        check(all(np.isfinite(m.train_loss).all() for m in models), "non-finite train_loss")
        self.tally.digest("build.weights_sha256", weights_digest(bench))
        return dt

    def details(self, parts: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {"build.models_per_s": (model_count(self.config) / parts["build"], "models/s")}


# ---------------------------------------------------------------------------
# evaluate: no training in the timed part; evaluation layers do all the work.
# ---------------------------------------------------------------------------


class Evaluate:
    trace_setup = True

    def __init__(self, scale: Scale, seed: int, tally: Tally, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.tally = tally
        self.families = families(scale)
        self.parts = tuple(self.families)
        self.bench = None
        self.pairs = {}

    def setup(self) -> None:
        """Build the benchmark triplet the timed evaluations score."""
        self.bench = harness.build_benchmark(self.scale.config(self.seed))

    def round(self) -> dict[str, float]:
        parts = {}
        for name, spec in self.families.items():
            dt = self.tally.attempt(f"evaluate.{name}", lambda: self._evaluate(name, spec))
            if dt is not None:
                parts[name] = dt
        return parts

    traced_round = round

    def _evaluate(self, name: str, spec: SchemeSpec) -> float:
        dt, report = timed(
            harness.evaluate, spec, self.bench, n_runs=self.scale.n_runs,
            seed=self.seed, workers=1, compute_pair_stats=True,
        )
        check_report(report.to_record(), pair_count(self.bench.config, self.scale.n_runs))
        self.pairs[name] = len(report.scores)
        self.tally.digest(f"eval.{name}.report_sha256", sha256(report.to_json().encode()))
        return dt

    def details(self, parts: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {
            f"eval.{name}.pairs_per_s": (self.pairs[name] / parts[name], "pairs/s")
            for name in self.families
        }


# ---------------------------------------------------------------------------
# cli: the user's command chain, with interpreter start-up, weight and
# manifest I/O and the CLI's default worker pool.
# ---------------------------------------------------------------------------


class Cli:
    parts = ("generate", "evaluate", "sweep")
    trace_setup = False

    def __init__(self, scale: Scale, seed: int, tally: Tally, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.tally = tally
        self.dir = workdir
        self.config = scale.config(seed)
        # @100 is infeasible for some seeds (a victim misclassifies fewer
        # than 100 of its 1000 test points, so cells are skipped); every
        # desk victim in seeds 100-219 misclassifies at least 96
        self.baseline = mistake_match_scheme(scale.negative_budget)
        self.chain = chain_scheme(scale)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def argv(self, command: str) -> list[str]:
        # relative paths: the evaluate report embeds its --benchmark argument;
        # --workers is left at its default, the CPU count
        common = ["--seed", str(self.seed), "--runs", str(self.scale.n_runs)]
        if command == "generate":
            return ["generate", "--config", "config.json", "--out", "bench"]
        if command == "evaluate":
            return ["evaluate", "--benchmark", "bench", "--scheme", "baseline.json",
                    *common, "--out", "reports"]
        budgets = ",".join(str(b) for b in self.scale.sweep_budgets)
        return ["sweep", "--benchmark", "bench", "--scheme", "baseline.json", "chain.json",
                "--budgets", budgets, *common, "--out", "sweep"]

    def setup(self) -> None:
        """Write the seeded inputs and start the CLI once (``--version``)."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for fname, record in (
            ("config.json", self.config.to_record()),
            ("baseline.json", self.baseline.to_record()),
            ("chain.json", self.chain.to_record()),
        ):
            (self.dir / fname).write_text(json.dumps(record))
        proc = self._spawn(["--version"])
        if proc.returncode != 0:
            raise RuntimeError(f"modelprint --version exited {proc.returncode}: {proc.stderr}")

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "modelprint.cli", *argv], cwd=self.dir, env=self.env,
            capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )

    def _in_process(self, argv: list[str]) -> int:
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        finally:
            os.chdir(cwd)

    def traced_round(self) -> dict[str, float]:
        """The chain through ``cli.main`` in this process, where spans can see it."""
        return self.round(in_process=True)

    def round(self, in_process: bool = False) -> dict[str, float]:
        """The chain once, each command in its own interpreter."""
        for out in ("bench", "reports", "sweep"):
            shutil.rmtree(self.dir / out, ignore_errors=True)
        parts = {}
        for command in self.parts:
            dt = self.tally.attempt(f"cli.{command}",
                                    lambda: self._command(command, in_process))
            if dt is None:
                break
            parts[command] = dt
        return parts

    def _command(self, command: str, in_process: bool) -> float:
        argv = self.argv(command)
        if in_process:
            dt, rc = timed(self._in_process, argv)
        else:
            dt, proc = timed(self._spawn, argv)
            rc = proc.returncode
        check(rc == 0, f"exit code {rc}")
        getattr(self, f"_check_{command}")()
        return dt

    def _check_generate(self) -> None:
        bench = self.dir / "bench"
        n = len(list(bench.glob("*.mpw")))
        check(n == model_count(self.config), f"{n} weight files, expected {model_count(self.config)}")
        self.tally.digest("cli.manifest_sha256", sha256((bench / "manifest.json").read_bytes()))

    def _check_evaluate(self) -> None:
        stem = f"evaluate_{self.baseline.label().replace('/', '-')}"
        raw = (self.dir / "reports" / f"{stem}.json").read_bytes()
        check_report(json.loads(raw), pair_count(self.config, self.scale.n_runs))
        self.tally.digest("cli.evaluate_report_sha256", sha256(raw))

    def _check_sweep(self) -> None:
        raw = (self.dir / "sweep" / "sweep.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(raw.decode())))
        check(all(math.isfinite(float(r["tpr_at_cap"])) for r in rows), "non-finite TPR")
        seen = {(r["scheme"], r["task"], int(r["budget"]), int(r["run"])) for r in rows}
        missing = {
            (spec.label(), tag.method, budget, run)
            for spec in (self.baseline, self.chain)
            for tag in self.config.stolen
            for budget in self.scale.sweep_budgets
            for run in range(self.scale.n_runs)
        } - seen
        check(not missing, f"sweep.csv lacks {len(missing)} rows, e.g. {sorted(missing)[:1]}")
        self.tally.digest("cli.sweep_csv_sha256", sha256(raw))

    def details(self, parts: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {f"cli.{command}_s": (parts[command], "s") for command in self.parts}


WORKLOADS = {"build": Build, "evaluate": Evaluate, "cli": Cli}
