"""``FingerprintScheme.distances`` scores a cell's suspects as arrays, bit for bit.

The slow oracle is the one-model-at-a-time loop it replaced: answer each
model through its own query method, build its fingerprint with the
per-model payload code ``represent`` used to hold, and compare with the
per-fingerprint distance.  Both are kept here, so the public ``represent``
and ``fingerprint_distance`` (now K=1 callers of the stacked functions)
are checked against them too.

``evaluate`` has each suspect answer all of a victim's runs in one query.
Its oracle is the runs-first loop it replaced, with one ``distances`` call
per (run, victim) cell.  That relies on ``probits(X, blocks)`` and
``predict(X, blocks)`` answering each block bit for bit as if it were
queried alone, which is checked here as well.
"""

import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.core import Access
from modelprint.errors import (
    AccessInsufficient,
    IncomparableFingerprints,
    ModelprintError,
    NonFiniteAnswer,
)
from modelprint.fingerprints import KINDS, fingerprint_distance, represent
from modelprint.harness import (
    DESK_ARCH,
    STREAM_QUERY,
    BenchmarkTriplet,
    EvalReport,
    PairScore,
    Victim,
    _mean_std,
    derive_seed,
    evaluate,
    roc_curve,
    tpr_at_fpr,
)
from modelprint.samplers import NegativeSampler, Subsampler, UniformSampler
from modelprint.schemes import FingerprintScheme, SchemeSpec
from modelprint.tinylearn import MLPSpec, init_weights

from conftest import QUICK_TASK, nan_copy, reference_cosine_distance


def reference_payload(qs, answers, kind, inner):
    """One model's fingerprint payload, as ``represent`` built it before stacking."""
    answers = np.asarray(answers)
    if kind == "raw_labels":
        return answers.astype(np.int64)
    if kind == "raw_probits":
        return answers.astype(np.float64)
    probit_based = inner == "cosine"
    if kind == "pairwise":
        first, second = np.asarray(qs.pairing, dtype=np.int64).reshape(-1, 2).T
        if probit_based:
            return np.array([reference_cosine_distance(u, v)
                             for u, v in zip(answers[first], answers[second])])
        return (answers[first] != answers[second]).astype(np.float64)
    if probit_based:
        norms = np.linalg.norm(answers, axis=1, keepdims=True)
        N = answers / np.where(norms == 0.0, 1.0, norms)
        M = 1.0 - N @ N.T
        zero = (norms == 0.0).ravel()
        if zero.any():
            M[zero, :] = 1.0
            M[:, zero] = 1.0
            M[np.ix_(zero, zero)] = 0.0
    else:
        M = (answers[:, None] != answers[None, :]).astype(np.float64)
    M = 0.5 * (M + M.T)
    np.fill_diagonal(M, 0.0)
    return M


def reference_distance(kind, a, b) -> float:
    """The per-fingerprint distance between two payloads of one kind."""
    if kind == "raw_labels":
        return float(np.mean(a != b))
    if kind == "raw_probits":
        return float(np.mean([reference_cosine_distance(u, v) for u, v in zip(a, b)]))
    return reference_cosine_distance(a, b)


def reference_distances(scheme, victim, models, qs) -> list[float]:
    """The one-model-at-a-time loop that ``distances`` replaced."""
    spec = scheme.spec
    kind, inner = spec.representation, spec.inner_distance

    def answers(m):
        return m.probits(qs.points) if spec.needs_probits else m.predict(qs.points)

    fp_v = reference_payload(qs, answers(victim), kind, inner)
    return [reference_distance(kind, fp_v, reference_payload(qs, answers(m), kind, inner))
            for m in models]


def bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def random_mlp(rng, widths, activation, identity):
    spec = MLPSpec(layer_widths=widths, activation=activation)
    scale = rng.choice([1.0, 4.0])
    weights = [(scale * W, rng.normal(0.0, 0.5, b.shape)) for W, b in init_weights(spec, rng)]
    return mp.MLPClassifier(spec, weights, identity=identity)


class SparseProbits(mp.Classifier):
    """Random nonnegative probit rows, about 30% of them all zero: the zero-norm case."""

    def __init__(self, seed, num_classes, input_dim, identity):
        super().__init__(identity, num_classes, input_dim, Access.PROBITS)
        self.seed = seed

    def _probits(self, X):
        rng = np.random.default_rng(self.seed)
        return rng.random((len(X), self.num_classes)) * (rng.random((len(X), 1)) < 0.7)


SUSPECT_KINDS = ("victim", "mlp_a", "mlp_b", "linear", "lookup", "noise", "function", "sparse")


def suspect(kind, rng, victim, qs, arch_a, arch_b, i, label_scheme):
    d, C = victim.input_dim, victim.num_classes
    name = f"{kind}-{i}"
    if kind == "victim":
        return victim
    if kind == "mlp_a":
        return random_mlp(rng, *arch_a, name)
    if kind == "mlp_b":
        return random_mlp(rng, *arch_b, name)
    if kind == "linear":
        return mp.LinearClassifier(rng.normal(0.0, 2.0, (C, d)), rng.normal(0.0, 1.0, C), name)
    if kind == "lookup":
        return mp.LookupClassifier(qs.points, rng.integers(1, C + 1, qs.size), C, name)
    if kind == "sparse":
        return SparseProbits(int(rng.integers(2**32)), C, d, name)
    inner = random_mlp(rng, *arch_a, f"{name}-inner")
    if kind == "noise":
        return mp.TopKOnly(inner, 1) if label_scheme else mp.ProbitPerturbation(inner, 0.5, seed=i)
    # "function": label-only, so a probit scheme gets one more linear model
    if label_scheme:
        return mp.FunctionClassifier(inner.predict, C, d, identity=name)
    return mp.LinearClassifier(rng.normal(0.0, 2.0, (C, d)), identity=name)


@st.composite
def cells(draw):
    """A scheme, its victim and query set, and a mixed suspect list."""
    kind = draw(st.sampled_from(KINDS))
    inner = draw(st.sampled_from(["cosine", "labels"]))
    s = 2 * draw(st.integers(1, 20)) if kind == "pairwise" else draw(st.integers(2, 40))
    sampler = Subsampler(k_variants=1) if kind == "pairwise" else draw(
        st.sampled_from([UniformSampler(), Subsampler(k_variants=1)]))
    if isinstance(sampler, Subsampler) and s % 2:
        s += 1
    spec = SchemeSpec(sampler=sampler, representation=kind, inner_distance=inner, budget=s)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, C = draw(st.integers(1, 4)), draw(st.sampled_from([2, 3, 9]))
    acts = st.sampled_from(["relu", "tanh"])
    arch_a = ((d, draw(st.integers(1, 8)), C), draw(acts))
    arch_b = ((d, draw(st.integers(1, 8)), draw(st.integers(1, 8)), C), draw(acts))
    pool = mp.LabeledDataset(rng.normal(0.0, 2.0, (60, d)), rng.integers(1, C + 1, 60), C)
    victim = random_mlp(rng, *arch_a, "victim")
    scheme = FingerprintScheme(spec)
    qs = scheme.query_set(victim, pool, int(rng.integers(0, 1000)))
    kinds = draw(st.lists(st.sampled_from(SUSPECT_KINDS), min_size=0, max_size=12))
    models = [suspect(k, rng, victim, qs, arch_a, arch_b, i, not spec.needs_probits)
              for i, k in enumerate(kinds)]
    return scheme, victim, models, qs


class TestMatchesOneModelAtATime:
    @settings(max_examples=200, deadline=None)
    @given(cell=cells())
    def test_distances_bit_equal(self, cell):
        scheme, victim, models, qs = cell
        want = reference_distances(scheme, victim, models, qs)
        fp_v = scheme.fingerprint(victim, qs)
        assert bits(scheme.distances(fp_v, models, qs)) == bits(want)
        assert bits(scheme.distances(victim, models, qs)) == bits(want)
        assert bits(scheme.distances(fp_v, (m for m in models), qs)) == bits(want)
        spec = scheme.spec
        kind, inner = spec.representation, spec.inner_distance
        # the public per-fingerprint functions, K=1 callers of the stacked ones
        assert fp_v.payload.tobytes() == reference_payload(
            qs, scheme._answers(victim, qs.points), kind, inner).tobytes()
        one_at_a_time = [
            fingerprint_distance(fp_v, represent(qs, scheme._answers(m, qs.points), kind, inner))
            for m in models
        ]
        assert bits(one_at_a_time) == bits(want)

    def test_suspects_of_another_class_count(self, quick_model, quick_model_b, quick_task):
        # listwise payloads are (s, s) whatever C is, so such a suspect scores;
        # raw probit payloads differ in shape, so it is incomparable, as before
        _, test = quick_task
        rng = np.random.default_rng(0)
        other = random_mlp(rng, (4, 5, 7), "relu", "seven-classes")
        models = [quick_model, other, quick_model_b]
        listwise = FingerprintScheme(SchemeSpec(sampler=UniformSampler(),
                                                representation="listwise", budget=12))
        qs = listwise.query_set(quick_model, test, 3)
        got = listwise.distances(quick_model, models, qs)
        assert bits(got) == bits(reference_distances(listwise, quick_model, models, qs))
        probits = FingerprintScheme(SchemeSpec(sampler=UniformSampler(),
                                               representation="raw_probits", budget=12))
        shapes = r"payload shapes \(12, 3\) and \(12, 7\)"
        with pytest.raises(IncomparableFingerprints, match=shapes):
            probits.distances(quick_model, models, qs)


PROBIT_SPEC = SchemeSpec(sampler=UniformSampler(), representation="raw_probits", budget=10)
LABEL_SPEC = SchemeSpec(sampler=UniformSampler(), representation="raw_labels",
                        inner_distance="labels", budget=10)


def lowered(model, identity, access):
    handle = model.clone(identity)
    handle.access = access
    return handle


class TestErrorSemantics:
    @pytest.mark.parametrize("spec", [PROBIT_SPEC, LABEL_SPEC], ids=["probits", "labels"])
    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_first_non_finite_suspect_is_named(self, spec, j, quick_model, quick_model_b,
                                               quick_task):
        _, test = quick_task
        models = [quick_model_b.clone(f"ok-{i}") for i in range(6)]
        models[j] = nan_copy(quick_model, "first-nan")
        models[5] = nan_copy(quick_model, "later-nan")
        scheme = FingerprintScheme(spec)
        with pytest.raises(NonFiniteAnswer, match="first-nan: probits hold NaN or inf"):
            scheme.distances(quick_model, models, scheme.query_set(quick_model, test, 0))

    def test_first_failing_suspect_in_list_order(self, quick_model, quick_task):
        _, test = quick_task
        nan_linear = mp.LinearClassifier(np.full((3, 4), np.nan), identity="nan-linear")
        scheme = FingerprintScheme(PROBIT_SPEC)
        qs = scheme.query_set(quick_model, test, 0)
        for models, name in (
            ([quick_model, nan_linear, nan_copy(quick_model, "nan-mlp")], "nan-linear"),
            ([nan_copy(quick_model, "nan-mlp"), nan_linear], "nan-mlp"),
        ):
            with pytest.raises(NonFiniteAnswer, match=f"{name}: "):
                scheme.distances(quick_model, models, qs)

    def test_label_handle_in_probit_scheme_is_named(self, quick_model, quick_task):
        _, test = quick_task
        scheme = FingerprintScheme(PROBIT_SPEC)
        qs = scheme.query_set(quick_model, test, 0)
        labels_only = lowered(quick_model, "labels-only", Access.LABELS)
        fn = mp.FunctionClassifier(quick_model.predict, 3, 4, identity="fn-handle")
        for handle in (labels_only, fn):
            with pytest.raises(AccessInsufficient,
                               match=f"{handle.identity}: probit queries needs PROBITS"):
                scheme.distances(quick_model, [quick_model, handle], qs)
        # the same lowered handle still answers label queries
        label_scheme = FingerprintScheme(LABEL_SPEC)
        qs = label_scheme.query_set(quick_model, test, 0)
        assert label_scheme.distances(quick_model, [labels_only], qs) == [0.0]

    def test_score_cell_skips_only_victim_errors(self, mini_benchmark):
        """In ``evaluate``, a victim-side error skips its cell; a suspect-side error raises."""
        victim, *others = mini_benchmark.victims
        vid = victim.model.identity
        broken = type(victim)(nan_copy(victim.model, vid), victim.train_data,
                              victim.test_data, victim.task)
        bench = replace(mini_benchmark, victims=(broken, *others))
        report = evaluate(PROBIT_SPEC, bench, n_runs=1, compute_pair_stats=False)
        assert [(s["victim"], s["error"]) for s in report.skipped] == [(vid, "non-finite-answer")]
        (model, tag), *rest = mini_benchmark.stolen[vid]
        for bad in (nan_copy(model), lowered(model, "labels-only", Access.LABELS)):
            bench = replace(mini_benchmark, stolen={**mini_benchmark.stolen,
                                                    vid: ((bad, tag), *rest)})
            with pytest.raises((NonFiniteAnswer, AccessInsufficient),
                               match=re.escape(bad.identity)):
                evaluate(PROBIT_SPEC, bench, n_runs=1, compute_pair_stats=False)


def reference_evaluate(spec, bench, n_runs, seed, fpr_cap=0.05) -> EvalReport:
    """``evaluate`` without pair statistics, as it was before suspects answered per victim.

    Runs come first, and each (run, victim) cell makes its own ``distances`` call.
    """
    scheme = FingerprintScheme(spec)
    tasks = bench.tasks
    scores, skipped, per_task, pooled = [], [], {t: [] for t in tasks}, []
    for run in range(n_runs):
        run_scores = []
        for vi, victim in enumerate(bench.victims):
            vid = victim.model.identity
            try:
                qs = scheme.query_set(victim.model, victim.data(spec.seed_split),
                                      derive_seed(seed + run, STREAM_QUERY, vi))
                fp_v = scheme.fingerprint(victim.model, qs)
            except ModelprintError as err:
                skipped.append({"run": run, "victim": vid, "error": err.code, "detail": str(err)})
                continue
            suspects = bench.stolen[vid] + bench.unrelated[vid]
            dists = scheme.distances(fp_v, [model for model, _ in suspects], qs)
            run_scores += [PairScore(run, vid, model.identity, tag.method, tag.is_positive, -d)
                           for (model, tag), d in zip(suspects, dists)]
        run_scores.sort(key=lambda s: (s.victim, s.suspect))
        scores += run_scores
        negatives = [s for s in run_scores if not s.positive]
        run_victims = sorted({s.victim for s in run_scores})
        scored = bool(run_victims and negatives)
        for t in tasks:
            subset = [s for s in run_scores if s.positive and s.task == t] + negatives
            per_task[t].append(tpr_at_fpr(roc_curve(subset, run_victims), fpr_cap)
                               if scored else 0.0)
        pooled.append(tpr_at_fpr(roc_curve(run_scores, run_victims), fpr_cap) if scored else 0.0)
    mean_over_tasks = [float(np.mean([per_task[t][r] for t in tasks])) for r in range(n_runs)]
    first = bench.victims[0]
    return EvalReport(
        scheme=spec.to_record(),
        budget=spec.budget,
        n_runs=n_runs,
        run_seeds=tuple(seed + r for r in range(n_runs)),
        fpr_cap=fpr_cap,
        per_task={t: _mean_std(v) for t, v in per_task.items()},
        aggregate={"mean_over_tasks": _mean_std(mean_over_tasks),
                   "pooled_pairs": _mean_std(pooled)},
        scores=tuple(scores),
        pair_statistics={},
        skipped=tuple(skipped),
        model_scale={
            "layer_widths": list(first.model.spec.layer_widths),
            "n_params": first.model.n_params,
            "n_victims": len(bench.victims),
            "n_train": len(first.train_data),
            "n_test": len(first.test_data),
        },
        run_config={"scheme": spec.to_record(), "budget": spec.budget, "n_runs": n_runs,
                    "seed": seed, "fpr_cap": fpr_cap},
    )


STOLEN_METHODS = ("same", "prune", "quantize", "finetune", "label_extraction")
BENCH_SUSPECT_KINDS = ("mlp_a", "mlp_b", "linear", "lookup", "noise")


@st.composite
def benchmarks(draw):
    """A scheme, an untrained benchmark with mixed suspects, a run count and a root seed.

    One victim may answer NaN, and each victim misclassifies its own number of
    pool points, so a negative-sampling budget can be out of reach for some.
    """
    kind = draw(st.sampled_from(KINDS))
    inner = draw(st.sampled_from(["cosine", "labels"]))
    sampler = Subsampler(k_variants=1) if kind == "pairwise" else draw(
        st.sampled_from([UniformSampler(), NegativeSampler(), Subsampler(k_variants=1)]))
    budget = draw(st.sampled_from([1, 2, 3, 5, 7, 8, 13]))
    if isinstance(sampler, Subsampler):
        budget += budget % 2
    spec = SchemeSpec(sampler=sampler, representation=kind, inner_distance=inner, budget=budget)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a layer of 16 or more inputs into 1-3 (mod 8) outputs is one where OpenBLAS answers
    # a row by where it falls in the batch
    d, C = draw(st.integers(1, 8)), draw(st.sampled_from([2, 3, 4, 5]))
    widths = st.sampled_from([2, 5, 8, 16, 19, 24])
    acts = st.sampled_from(["relu", "tanh"])
    arch_a = ((d, draw(widths), C), draw(acts))
    arch_b = ((d, draw(widths), draw(widths), C), draw(acts))
    n_victims, n_stolen = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    nan_victim = draw(st.integers(-1, n_victims - 1))  # -1: every victim answers
    victims, stolen, unrelated = [], {}, {}
    for v in range(n_victims):
        model = random_mlp(rng, *arch_a, f"victim-{v}")
        points = rng.normal(0.0, 2.0, (30, d))
        labels = model.predict(points)
        wrong = rng.choice(30, draw(st.integers(0, 10)), replace=False)
        labels[wrong] = labels[wrong] % C + 1
        pool = mp.LabeledDataset(points, labels, C)
        if v == nan_victim:
            model = nan_copy(model)
        victims.append(Victim(model, pool, pool, QUICK_TASK))

        def suspects(kinds, prefix):
            out = []
            for i, k in enumerate(kinds):
                name = f"{model.identity}-{prefix}{i}"
                if k == "lookup" and isinstance(sampler, Subsampler):
                    k = "linear"  # vicinity points lie outside the lookup table
                if k == "mlp_a":
                    out.append(random_mlp(rng, *arch_a, name))
                elif k == "mlp_b":
                    out.append(random_mlp(rng, *arch_b, name))
                elif k == "linear":
                    out.append(mp.LinearClassifier(rng.normal(0.0, 2.0, (C, d)),
                                                   rng.normal(0.0, 1.0, C), name))
                elif k == "lookup":
                    out.append(mp.LookupClassifier(points, rng.integers(1, C + 1, 30), C, name))
                else:
                    noisy = random_mlp(rng, *arch_a, name)
                    out.append(mp.ProbitPerturbation(noisy, 0.5, seed=i) if spec.needs_probits
                               else mp.TopKOnly(noisy, 1))
            return out

        # every victim has one stolen model per task, as in a built benchmark
        kinds = st.lists(st.sampled_from(BENCH_SUSPECT_KINDS), min_size=n_stolen,
                         max_size=n_stolen)
        stolen[model.identity] = tuple(
            (m, mp.TaskTag(method))
            for m, method in zip(suspects(draw(kinds), "s"), STOLEN_METHODS))
        kinds = st.lists(st.sampled_from(BENCH_SUSPECT_KINDS), min_size=1, max_size=4)
        unrelated[model.identity] = tuple(
            (m, mp.TaskTag("unrelated")) for m in suspects(draw(kinds), "u"))
    bench = BenchmarkTriplet(tuple(victims), stolen, unrelated)
    return spec, bench, draw(st.integers(1, 4)), draw(st.integers(0, 100))


class TestEvaluateAnswersPerVictim:
    @settings(max_examples=150, deadline=None)
    @given(case=benchmarks())
    def test_report_bytes_equal_the_runs_first_loop(self, case):
        spec, bench, n_runs, seed = case
        got = evaluate(spec, bench, n_runs=n_runs, seed=seed, compute_pair_stats=False)
        assert got.to_json() == reference_evaluate(spec, bench, n_runs, seed).to_json()

    @pytest.mark.parametrize("budget", [10, 2, 1])
    def test_each_suspect_answers_once_per_victim(self, budget, mini_benchmark, monkeypatch):
        """Also at budget 1, where one query per run would use gemv, not gemm."""
        spec = replace(PROBIT_SPEC, budget=budget)
        want = reference_evaluate(spec, mini_benchmark, 5, 0).to_json()
        calls = Counter()
        probits = mp.Classifier.probits

        def counting(self, *args):
            calls[self.identity] += 1
            return probits(self, *args)

        monkeypatch.setattr(mp.Classifier, "probits", counting)
        report = evaluate(spec, mini_benchmark, n_runs=5, compute_pair_stats=False)
        assert not report.skipped and report.to_json() == want
        victims = [v.model.identity for v in mini_benchmark.victims]
        suspects = Counter(model.identity for vid in victims for model, _ in
                           mini_benchmark.stolen[vid] + mini_benchmark.unrelated[vid])
        assert calls == suspects + Counter(dict.fromkeys(victims, 5))


class TestBlocks:
    @pytest.mark.parametrize("widths", [DESK_ARCH.layer_widths, (4, 16, 3)],
                             ids=["desk", "16-into-3"])
    @pytest.mark.parametrize("blocks, size", [(5, 1), (5, 2), (3, 13), (4, 100), (2, 500)])
    def test_blocks_answer_bit_for_bit_as_alone(self, widths, blocks, size):
        """Stacked (MLP, linear) and block-by-block (noise wrapper) handles alike.

        A 500-row block reaches OpenBLAS's threaded path.  A 16-wide layer into 3
        classes answers a row by where it falls in one product over all rows.
        """
        rng = np.random.default_rng(size)
        mlp = random_mlp(rng, widths, "relu", "mlp")
        linear = mp.LinearClassifier(rng.normal(0.0, 2.0, (widths[-1], widths[0])))
        X = rng.normal(0.0, 2.0, (blocks * size, widths[0]))
        for handle in (mlp, linear, mp.ProbitPerturbation(mlp, 0.5)):
            for query in (handle.probits, handle.predict):
                alone = np.concatenate([query(x) for x in np.split(X, blocks)])
                assert query(X, blocks).tobytes() == alone.tobytes()

    def test_blocks_must_split_evenly(self, quick_model):
        for blocks in (0, -1, 4):
            with pytest.raises(ValueError, match=f"10 points do not split into {blocks} equal"):
                quick_model.probits(np.zeros((10, 4)), blocks)
