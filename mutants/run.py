"""Mutation checks: each mutant breaks one line of a copy of the checkout, and its tests must fail.

Run from any directory, with pytest and hypothesis installed:

    python mutants/run.py

First the union of every mutant's test ids runs on an unbroken copy of the
checkout and must pass, so that a failure below is the mutant's doing.  Then
each mutant gets a fresh copy in a temporary directory, where one exact text
replacement is made: its old text must occur exactly once in its file, or the
mutant is stale (the code moved, so the mutant must move with it); a file
that the replacement leaves unparsable makes the mutant invalid, since its
tests would fail on the syntax error alone.  Its test ids run there with
``-p no:cacheprovider --hypothesis-seed=0``, and the mutant is killed if they
fail and survives if they pass.  The checkout itself is never changed.  The
exit code is 1 unless every mutant is killed.

A mutant that survives needs a test that kills it; it is not dropped from the set.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                              ".perfbench_out")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "raw labels read probits under the cosine inner distance",
        "src/modelprint/fingerprints.py",
        'return kind == "raw_probits" or (kind != "raw_labels" and inner_distance == "cosine")',
        'return kind == "raw_probits" or inner_distance == "cosine"',
        ("tests/test_batched_scoring.py::TestMatchesOneModelAtATime::test_distances_bit_equal",
         "tests/test_batched_scoring.py::TestAnswerRule::test_represent_reads_what_the_rule_names"),
    ),
    Mutant(
        "mean_over_tasks averages the pooled column too",
        "src/modelprint/harness.py",
        '"mean_over_tasks": _mean_std(float(np.mean(row[:-1])) for row in tprs)',
        '"mean_over_tasks": _mean_std(float(np.mean(row)) for row in tprs)',
        ("tests/test_batched_scoring.py::TestEvaluateAnswersPerVictim"
         "::test_report_bytes_equal_the_runs_first_loop",
         "tests/test_golden.py"),
    ),
    Mutant(
        "_rates finds each score's first flagging threshold from the left",
        "src/modelprint/harness.py",
        'np.searchsorted(thresholds, score, side="right")',
        'np.searchsorted(thresholds, score, side="left")',
        ("tests/test_harness.py::test_reports_byte_identical_to_oracles_at_fpr_points[1]",
         "tests/test_harness.py::test_tprs_at_cap_equal_the_threshold_scan"),
    ),
    Mutant(
        "softmax's column max skips NaN",
        "src/modelprint/core.py",
        "top = np.maximum(top, logits[..., c])",
        "top = np.fmax(top, logits[..., c])",
        ("tests/test_core.py::test_softmax_column_max_is_bit_equal_to_the_row_max",),
    ),
    Mutant(
        "evaluate skips every run of a victim whose stacked draw raised",
        "src/modelprint/harness.py",
        "        except ModelprintError:  # some run cannot be drawn: draw each alone, in its "
        "cell's try\n            drawn = [None] * n_runs\n",
        "        except ModelprintError as err:\n"
        "            skipped += [{\"run\": run, \"victim\": vid, \"error\": err.code, "
        "\"detail\": str(err)} for run in range(n_runs)]\n"
        "            continue\n",
        ("tests/test_batched_scoring.py::TestEvaluateSamplesPerVictim"
         "::test_only_the_runs_that_fail_to_draw_are_skipped",),
    ),
    Mutant(
        "load_weights accepts trailing bytes",
        "src/modelprint/tinylearn.py",
        "if len(raw) - offset != n_bytes:",
        "if len(raw) - offset < n_bytes:",
        ("tests/test_tinylearn.py::TestCorruptWeights::test_trailing_bytes",),
    ),
    Mutant(
        "_blocks answers a stack as one concatenated product, not one product per block",
        "src/modelprint/core.py",
        "        out = hook(*split)\n",
        "        out = hook(X, *rows)[None]\n",
        ("tests/test_batched_scoring.py::TestBlocks::test_blocks_answer_bit_for_bit_as_alone",),
    ),
    Mutant(
        "_tprs_at_cap keeps only the ROC points strictly below the FPR cap",
        "src/modelprint/harness.py",
        "rates[rates[:, -1] <= fpr_cap, :-1]",
        "rates[rates[:, -1] < fpr_cap, :-1]",
        ("tests/test_harness.py::test_tprs_at_cap_equal_the_threshold_scan",
         "tests/test_harness.py::test_reports_byte_identical_to_oracles_at_fpr_points[1]"),
    ),
    Mutant(
        "fingerprint_distances drops the last, partial listwise stack",
        "src/modelprint/fingerprints.py",
        "for i in range(0, len(group), step)",
        "for i in range(0, len(group) - step + 1, step)",
        ("tests/test_batched_scoring.py::TestMatchesOneModelAtATime"
         "::test_listwise_stacks_bit_equal",),
    ),
    Mutant(
        "cosine_rows clamps with np.maximum, which keeps a NaN distance",
        "src/modelprint/fingerprints.py",
        "dist = np.where(dist > 0.0, dist, 0.0)",
        "dist = np.maximum(dist, 0.0)",
        ("tests/test_fingerprints.py::TestCosineMatchesScalarOracle"
         "::test_overflowing_rows_clamp_to_zero",),
    ),
    Mutant(
        "evaluate pairs a victim's distance rows with runs 0..n_cells-1, not its drawn runs",
        "src/modelprint/harness.py",
        "runs = np.fromiter(cells, np.int64)",
        "runs = np.arange(len(cells))",
        ("tests/test_batched_scoring.py::TestEvaluateSamplesPerVictim"
         "::test_only_the_runs_that_fail_to_draw_are_skipped",
         "tests/test_batched_scoring.py::TestEvaluateAnswersPerVictim"
         "::test_report_bytes_equal_the_runs_first_loop"),
    ),
    Mutant(
        "the cross-entropy gradient adds the one-hot labels instead of subtracting them",
        "src/modelprint/core.py",
        "D -= one_hot(labels.ravel(), self.num_classes).reshape(D.shape)",
        "D += one_hot(labels.ravel(), self.num_classes).reshape(D.shape)",
        ("tests/test_tinylearn.py::TestGradients::test_batched_xent_gradient_matches_composition",
         "tests/test_samplers.py::TestAdversarial::test_label_flip_matches_closed_form_margin",
         "tests/test_golden.py"),
    ),
    Mutant(
        "the MLP pullback skips the activation derivative of the first hidden layer",
        "src/modelprint/tinylearn.py",
        "                if layer > 0:\n                    _act_grad(self.spec.activation,",
        "                if layer > 1:\n                    _act_grad(self.spec.activation,",
        ("tests/test_tinylearn.py::TestGradients::test_matches_central_finite_differences",
         "tests/test_golden.py"),
    ),
    Mutant(
        "quantile_threshold floors target_fpr * m without its epsilon",
        "src/modelprint/fingerprints.py",
        "allowed = int(target_fpr * m + 1e-9)",
        "allowed = int(target_fpr * m)",
        ("tests/test_fingerprints.py::TestCalibration"
         "::test_target_of_whole_members_flags_that_many",),
    ),
    Mutant(
        "ChainSampler seeds its second stage from a first stage that synthesized points",
        "src/modelprint/samplers.py",
        "if any(q1.source_indices is None or (q1.source_indices < 0).any() for q1 in firsts):",
        "if False:",
        ("tests/test_samplers.py::TestChain::test_point_synthesizing_first_stage_rejected",),
    ),
)
if sys.version_info < (3, 13):  # from 3.13 csv.writer quotes a lone \r itself: no output changes
    MUTANTS += (Mutant(
        "write_csv leaves a lone \\r unquoted: the writer quotes only its \\n terminator",
        "src/modelprint/core.py",
        "    lf = SimpleNamespace(write=lambda line: fh.write(line[:-2] + \"\\n\"))\n"
        "    csv.writer(lf, lineterminator=\"\\r\\n\").writerows(rows)\n",
        "    csv.writer(fh, lineterminator=\"\\n\").writerows(rows)\n",
        ("tests/test_harness.py::TestDistanceReport"
         "::test_csv_round_trip_of_identities_with_commas_quotes_and_line_breaks",),
    ),)


def pytest_passes(tree: Path, tests) -> bool:
    """Whether ``tests`` pass in ``tree``, run with its ``src`` on the path."""
    env = os.environ | {"PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def verdict(mutant: Mutant, scratch: Path) -> str:
    """``killed``, ``survived``, ``stale`` or ``invalid`` for one mutant, on a fresh copy."""
    tree = scratch / "tree"
    shutil.copytree(ROOT, tree, ignore=SKIP)
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return "stale"
    text = text.replace(mutant.old, mutant.new)
    try:
        compile(text, str(path), "exec")
    except SyntaxError:
        return "invalid"
    path.write_text(text)
    return "survived" if pytest_passes(tree, mutant.tests) else "killed"


def main() -> int:
    every_test = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if not pytest_passes(tree, every_test):
            print("the mutants' tests fail on the unbroken checkout:", *every_test, sep="\n  ")
            return 1
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            result = verdict(mutant, Path(scratch))
        failed += result != "killed"
        print(f"{result:8} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
