"""``FingerprintScheme.distances`` scores a cell's suspects as arrays, bit for bit.

The slow oracle is the one-model-at-a-time loop it replaced: answer each
model through its own query method, build its fingerprint with the
per-model payload code ``represent`` used to hold, and compare with the
per-fingerprint distance.  Both are kept here, so the public ``represent``
and ``fingerprint_distance`` (now K=1 callers of the stacked functions)
are checked against them too.

``evaluate`` samples all of a victim's runs in one ``sample_runs`` call and
has each suspect answer all of them in one query.  Its oracle is the
runs-first loop it replaced, which samples one run at a time and makes one
``distances`` call per (run, victim) cell; ``sample_runs`` itself is checked
against one ``sample`` call per run.  That relies on ``probits(X, blocks)``,
``predict(X, blocks)`` and ``xent_input_gradient(X, labels, blocks)``
answering each block bit for bit as if it were queried alone, which is
checked here as well.
"""

import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.core import Access
from modelprint.errors import (
    AccessInsufficient,
    IncomparableFingerprints,
    ModelprintError,
    NonFiniteAnswer,
)
from modelprint import fingerprints
from modelprint.fingerprints import INNER_DISTANCES, KINDS, fingerprint_distance, represent
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
from modelprint.samplers import (
    AdversarialSampler,
    ChainSampler,
    NegativeSampler,
    QuerySet,
    Subsampler,
    UniformSampler,
    projected_gradient_ascent,
)
from modelprint.schemes import FingerprintScheme, SchemeSpec, mistake_match_scheme
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


class PartlyNonFinite(mp.Classifier):
    """An MLP's probits and gradients, NaN at points whose first coordinate exceeds ``cut``.

    It answers block by block, so at ``cut=inf`` it is a finite suspect that does not stack.
    """

    def __init__(self, inner, cut):
        super().__init__(inner.identity, inner.num_classes, inner.input_dim, Access.GRADIENTS)
        self.inner, self.cut = inner, cut

    def _probits(self, X):
        P = self.inner.probits(X)
        P[X[:, 0] > self.cut] = np.nan
        return P

    def _xent_input_gradient(self, X, labels):
        G = self.inner.xent_input_gradient(X, labels)
        G[X[:, 0] > self.cut] = np.nan
        return G


SUSPECT_KINDS = ("victim", "mlp_a", "mlp_b", "linear", "lookup", "blockwise", "function",
                 "sparse")


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
    inner = random_mlp(rng, *arch_a, name)
    if label_scheme:  # "blockwise" and "function" answer labels block by block
        return mp.FunctionClassifier(inner.predict, C, d, identity=name)
    if kind == "blockwise":
        return PartlyNonFinite(inner, np.inf)
    # "function" is label-only, so a probit scheme gets one more linear model
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
        assert bits(scheme.distances(victim, models, qs)) == bits(want)
        assert bits(scheme.distances(victim, (m for m in models), qs)) == bits(want)
        fp_v = scheme.fingerprint(victim, qs)
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


    @pytest.mark.parametrize("inner", ["cosine", "labels"])
    def test_listwise_stacks_bit_equal(self, inner):
        """More suspects than a listwise stack holds, of two answer shapes, with zero
        probit rows and a copy of the victim, score as one at a time."""
        s = 100
        per = fingerprints.LISTWISE_STACK_BYTES // (8 * s * s)
        rng = np.random.default_rng(4)
        qs = QuerySet(rng.normal(size=(s, 3)), {"sampler": "test"})

        def answers(C):
            if inner == "labels":
                return rng.integers(1, C + 1, s)
            P = rng.random((s, C))
            P[rng.random(s) < 0.1] = 0.0
            P[0] = 0.0
            return P

        victim = answers(3)
        suspects = [victim.copy()] + [answers(C) for C in [3] * (per + 1) + [5] * (2 * per + 1)]
        suspects = [suspects[i] for i in rng.permutation(len(suspects))]
        if inner == "labels":
            assert len({a.shape for a in suspects}) == 1
        else:
            assert {a.shape for a in suspects} == {(s, 3), (s, 5)}
        fp = represent(qs, victim, "listwise", inner)
        got = fingerprints.fingerprint_distances(fp, qs, suspects, "listwise", inner)
        want = [fingerprint_distance(fp, represent(qs, a, "listwise", inner)) for a in suspects]
        oracle = [reference_distance("listwise", reference_payload(qs, victim, "listwise", inner),
                                     reference_payload(qs, a, "listwise", inner))
                  for a in suspects]
        assert bits(got) == bits(want) == bits(oracle)
        assert got.count(0.0) >= 1

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 120), C=st.integers(2, 9),
           K=st.integers(1, 4), inner=st.sampled_from(INNER_DISTANCES),
           zero=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    def test_listwise_payloads_exactly_symmetric(self, seed, s, C, K, inner, zero):
        """The stacked listwise payloads, which are not symmetrized, equal their transposes
        and the oracle, which symmetrizes, byte for byte; probit stacks hold zero rows."""
        rng = np.random.default_rng(seed)
        qs = QuerySet(rng.normal(size=(s, 1)), {"sampler": "test"})
        if inner == "labels":
            answers = rng.integers(1, C + 1, (K, s))
        else:
            answers = rng.random((K, s, C))
            answers[rng.random((K, s)) < zero] = 0.0
        payloads = fingerprints._payloads(qs, answers, "listwise", inner)
        for a, M in zip(answers, payloads):
            assert M.tobytes() == np.ascontiguousarray(M.T).tobytes()
            assert M.tobytes() == reference_payload(qs, a, "listwise", inner).tobytes()


# the answer rule stated case by case: raw probits, and pairwise and listwise under the
# cosine inner distance, read probits; every other representation reads labels
PROBIT_READERS = {("raw_probits", "cosine"), ("raw_probits", "labels"),
                  ("pairwise", "cosine"), ("listwise", "cosine")}


class TestAnswerRule:
    @pytest.mark.parametrize("given_probits", [False, True], ids=["labels", "probits"])
    @pytest.mark.parametrize("inner", INNER_DISTANCES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_represent_reads_what_the_rule_names(self, kind, inner, given_probits):
        rng = np.random.default_rng(0)
        qs = QuerySet(rng.normal(size=(8, 2)), provenance={"sampler": "subsample"},
                      pairing=((0, 4), (1, 5), (2, 6), (3, 7)))
        P = rng.random((8, 3))
        answers = P if given_probits else P.argmax(axis=1) + 1
        needed = fingerprints.needs_probits(kind, inner)
        assert needed == ((kind, inner) in PROBIT_READERS)
        if needed == given_probits:
            payload = represent(qs, answers, kind, inner).payload
            assert payload.tobytes() == reference_payload(qs, answers, kind, inner).tobytes()
            return
        error = AccessInsufficient if needed else ValueError
        with pytest.raises(error) as raised:
            represent(qs, answers, kind, inner)
        assert type(raised.value) is error

    def test_spec_reads_the_rule(self):
        specs = mp.standard_scheme_grid(100) + [
            SchemeSpec(sampler=Subsampler(k_variants=1), representation="pairwise",
                       inner_distance="labels"),
            SchemeSpec(sampler=UniformSampler(), representation="listwise",
                       inner_distance="labels")]
        for spec in specs:
            rule = fingerprints.needs_probits(spec.representation, spec.inner_distance)
            assert spec.needs_probits is rule, spec.label()


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
        report = evaluate(PROBIT_SPEC, bench, n_runs=1)
        assert [(s["victim"], s["error"]) for s in report.skipped] == [(vid, "non-finite-answer")]
        (model, tag), *rest = mini_benchmark.stolen[vid]
        for bad in (nan_copy(model), lowered(model, "labels-only", Access.LABELS)):
            bench = replace(mini_benchmark, stolen={**mini_benchmark.stolen,
                                                    vid: ((bad, tag), *rest)})
            with pytest.raises((NonFiniteAnswer, AccessInsufficient),
                               match=re.escape(bad.identity)):
                evaluate(PROBIT_SPEC, bench, n_runs=1)


def reference_evaluate(spec, bench, n_runs, seed, fpr_cap=0.05) -> EvalReport:
    """``evaluate`` as it was before it sampled and had suspects answer per victim.

    Runs come first, and each (run, victim) cell draws its own query set with one
    ``sample`` call and makes its own ``distances`` call.
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
                scheme.fingerprint(victim.model, qs)
            except ModelprintError as err:
                skipped.append({"run": run, "victim": vid, "error": err.code, "detail": str(err)})
                continue
            suspects = bench.stolen[vid] + bench.unrelated[vid]
            dists = scheme.distances(victim.model, [model for model, _ in suspects], qs)
            run_scores += [PairScore(run, vid, model.identity, tag.method, tag.is_positive, -d)
                           for (model, tag), d in zip(suspects, dists)]
        run_scores.sort(key=lambda s: (s.victim, s.suspect))
        scores += run_scores
        negatives = [s for s in run_scores if not s.positive]
        scored = bool(run_scores and negatives)
        for t in tasks:
            subset = [s for s in run_scores if s.positive and s.task == t] + negatives
            per_task[t].append(tpr_at_fpr(roc_curve(subset), fpr_cap) if scored else 0.0)
        pooled.append(tpr_at_fpr(roc_curve(run_scores), fpr_cap) if scored else 0.0)
    mean_over_tasks = [float(np.mean([per_task[t][r] for t in tasks])) for r in range(n_runs)]
    first = bench.victims[0]
    mlp = first.model if isinstance(first.model, mp.MLPClassifier) else None
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
        skipped=tuple(skipped),
        model_scale={
            "layer_widths": list(mlp.spec.layer_widths) if mlp else None,
            "n_params": mlp.n_params if mlp else None,
            "n_victims": len(bench.victims),
            "n_train": len(first.train_data),
            "n_test": len(first.test_data),
        },
        run_config={"seed": seed},
    )


def nan_cut(spec, model, pool, seeds, past):
    """The first coordinate past which a victim answers NaN.

    Past the ``"pool"``, only points that the gradient ascent moves answer NaN.  Past
    the ``"runs"``, the median over runs of each run's largest first coordinate in its
    query set, about half of the runs cross the cut.
    """
    if past == "runs":
        drawn = [outcome(FingerprintScheme(spec).query_set, model, pool, s) for s in seeds]
        tops = [qs.points[:, 0].max() for qs in drawn if isinstance(qs, QuerySet)]
        if tops:
            return np.median(tops)
    return pool.points[:, 0].max()


STOLEN_METHODS = ("same", "prune", "quantize", "finetune", "label_extraction")
BENCH_SUSPECT_KINDS = ("mlp_a", "mlp_b", "linear", "lookup", "blockwise")


@st.composite
def benchmarks(draw):
    """A scheme, an untrained benchmark with mixed suspects, a run count and a root seed.

    One victim may answer NaN, everywhere (``nan_past`` None) or only past a
    cut in its first coordinate (``nan_cut``), so that some of its runs fail
    to draw or to fingerprint and others do not.  Each victim misclassifies
    its own number of pool points, so a negative-sampling budget can be out
    of reach for some.

    About half of the examples with more than one run are ``partly``: one
    victim answers NaN past the cut that about half of its runs cross, and
    the sampler ascends gradients there, so those runs fail to draw.
    """
    n_runs, seed = draw(st.integers(1, 4)), draw(st.integers(0, 100))
    kind = draw(st.sampled_from(KINDS))
    inner = draw(st.sampled_from(["cosine", "labels"]))
    partly = n_runs > 1 and draw(st.booleans())
    ascent = AdversarialSampler(steps=3)
    samplers = [ascent, ChainSampler(UniformSampler(), ascent)]
    if not partly:
        samplers += [Subsampler(k_variants=1), ChainSampler(NegativeSampler(), ascent)]
        if kind != "pairwise":
            samplers += [UniformSampler(), NegativeSampler()]
    sampler = draw(st.sampled_from(samplers))
    synthesizes = not isinstance(sampler, (UniformSampler, NegativeSampler))
    budget = draw(st.sampled_from([1, 2, 3, 5, 7, 8, 13]))
    if isinstance(sampler, Subsampler) or kind == "pairwise" or (synthesizes and budget > 1):
        budget += budget % 2  # an adversarial or chain budget of 1 remains: every cell skips
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
    nan_victim = draw(st.integers(0 if partly else -1, n_victims - 1))  # -1: all answer
    nan_past = "runs" if partly else draw(st.sampled_from([None, "pool", "runs"]))
    victims, stolen, unrelated = [], {}, {}
    for v in range(n_victims):
        model = random_mlp(rng, *arch_a, f"victim-{v}")
        points = rng.normal(0.0, 2.0, (30, d))
        labels = model.predict(points)
        wrong = rng.choice(30, draw(st.integers(0, 10)), replace=False)
        labels[wrong] = labels[wrong] % C + 1
        pool = mp.LabeledDataset(points, labels, C)
        if v == nan_victim:
            seeds = [derive_seed(seed + run, STREAM_QUERY, v) for run in range(n_runs)]
            model = (nan_copy(model) if nan_past is None
                     else PartlyNonFinite(model, nan_cut(spec, model, pool, seeds, nan_past)))
        victims.append(Victim(model, pool, pool, QUICK_TASK))

        def suspects(kinds, prefix):
            out = []
            for i, k in enumerate(kinds):
                name = f"{model.identity}-{prefix}{i}"
                if k == "lookup" and synthesizes:
                    k = "linear"  # derived points lie outside the lookup table
                if k == "mlp_a":
                    out.append(random_mlp(rng, *arch_a, name))
                elif k == "mlp_b":
                    out.append(random_mlp(rng, *arch_b, name))
                elif k == "linear":
                    out.append(mp.LinearClassifier(rng.normal(0.0, 2.0, (C, d)),
                                                   rng.normal(0.0, 1.0, C), name))
                elif k == "lookup":
                    out.append(mp.LookupClassifier(points, rng.integers(1, C + 1, 30), C, name))
                else:  # "blockwise": an MLP that answers block by block
                    inner = random_mlp(rng, *arch_a, name)
                    out.append(PartlyNonFinite(inner, np.inf) if spec.needs_probits
                               else mp.FunctionClassifier(inner.predict, C, d, identity=name))
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
    return spec, bench, n_runs, seed


def partly_drawn(spec, bench, n_runs, seed) -> bool:
    """Whether some victim's stacked draw raises while some of its runs draw alone."""
    scheme = FingerprintScheme(spec)
    for vi, victim in enumerate(bench.victims):
        drawn = {isinstance(outcome(scheme.query_set, victim.model, victim.data(spec.seed_split),
                                    derive_seed(seed + run, STREAM_QUERY, vi)), QuerySet)
                 for run in range(n_runs)}
        if drawn == {True, False}:
            return True
    return False


class TestEvaluateAnswersPerVictim:
    @settings(max_examples=150, deadline=None)
    @given(case=benchmarks())
    def test_report_bytes_equal_the_runs_first_loop(self, case):
        spec, bench, n_runs, seed = case
        if partly_drawn(spec, bench, n_runs, seed):
            event("a victim's runs partly draw")
        got = evaluate(spec, bench, n_runs=n_runs, seed=seed)
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
        report = evaluate(spec, mini_benchmark, n_runs=5)
        assert not report.skipped and report.to_json() == want
        victims = [v.model.identity for v in mini_benchmark.victims]
        suspects = Counter(model.identity for vid in victims for model, _ in
                           mini_benchmark.stolen[vid] + mini_benchmark.unrelated[vid])
        assert calls == suspects + Counter(dict.fromkeys(victims, 5))


class TestEvaluateSamplesPerVictim:
    def test_only_the_runs_that_fail_to_draw_are_skipped(self, mini_benchmark):
        """A victim that answers NaN past a cut fails some runs' gradient ascent, not all.

        Its stacked draw raises, so ``evaluate`` draws each of its runs alone.
        """
        spec = SchemeSpec(sampler=AdversarialSampler(steps=4), representation="raw_probits",
                          budget=10)
        scheme = FingerprintScheme(spec)
        victim, *others = mini_benchmark.victims
        vid, pool = victim.model.identity, victim.data(spec.seed_split)
        seeds = [derive_seed(run, STREAM_QUERY, 0) for run in range(5)]
        # the median over runs of each run's largest first coordinate among its seed points
        cut = np.median([scheme.query_set(victim.model, pool, s).points[:5, 0].max()
                         for s in seeds])
        broken = replace(victim, model=PartlyNonFinite(victim.model, cut))
        fails = [run for run, s in enumerate(seeds)
                 if isinstance(outcome(scheme.query_set, broken.model, pool, s), NonFiniteAnswer)]
        assert 0 < len(fails) < len(seeds)
        with pytest.raises(NonFiniteAnswer):
            spec.sampler.sample_runs([pool] * 5, broken.model, spec.budget, seeds)
        bench = replace(mini_benchmark, victims=(broken, *others))
        report = evaluate(spec, bench, n_runs=5)
        assert [(s["run"], s["victim"], s["error"]) for s in report.skipped] == [
            (run, vid, "non-finite-answer") for run in fails]
        assert {s.run for s in report.scores if s.victim == vid} == set(range(5)) - set(fails)
        assert report.to_json() == reference_evaluate(spec, bench, 5, 0).to_json()

    def test_gradient_ascent_runs_once_per_victim(self, mini_benchmark, monkeypatch):
        """Each of the ``steps`` gradient queries covers all 5 runs; the rows stay the same."""
        steps, budget, runs = 4, 10, 5
        spec = SchemeSpec(sampler=AdversarialSampler(steps=steps), representation="raw_probits",
                          budget=budget)
        calls, rows, stacks = Counter(), Counter(), Counter()
        gradient = mp.MLPClassifier.xent_input_gradient

        def counting(self, X, labels, blocks=1):
            calls[self.identity] += 1
            rows[self.identity] += len(X)
            stacks[blocks] += 1
            return gradient(self, X, labels, blocks)

        monkeypatch.setattr(mp.MLPClassifier, "xent_input_gradient", counting)
        want = reference_evaluate(spec, mini_benchmark, runs, 0).to_json()
        alone_calls, alone_rows = calls.copy(), rows.copy()
        calls.clear(), rows.clear(), stacks.clear()
        report = evaluate(spec, mini_benchmark, n_runs=runs)
        assert not report.skipped and report.to_json() == want
        victims = [v.model.identity for v in mini_benchmark.victims]
        assert calls == Counter(dict.fromkeys(victims, steps))
        assert stacks == Counter({runs: steps * len(victims)})  # one block per run
        assert alone_calls == Counter(dict.fromkeys(victims, steps * runs))
        assert rows == alone_rows == Counter(dict.fromkeys(victims, steps * runs * budget // 2))

    def test_negative_sampler_predicts_each_pool_once(self, mini_benchmark, monkeypatch):
        spec = mistake_match_scheme(10)
        want = reference_evaluate(spec, mini_benchmark, 5, 0).to_json()
        pools = {v.model.identity: v.data(spec.seed_split).points for v in mini_benchmark.victims}
        seen = Counter()
        predict = mp.Classifier.predict

        def counting(self, X, *args):
            if X is pools.get(self.identity):
                seen[self.identity] += 1
            return predict(self, X, *args)

        monkeypatch.setattr(mp.Classifier, "predict", counting)
        report = evaluate(spec, mini_benchmark, n_runs=5)
        assert not report.skipped and report.to_json() == want
        assert seen == Counter(dict.fromkeys(pools, 1))


RUN_SAMPLERS = [
    UniformSampler(),
    NegativeSampler(),
    AdversarialSampler(),
    AdversarialSampler(eps=0.3, steps=4, step_size=0.05),
    Subsampler(k_variants=0),
    Subsampler(k_variants=1, vicinity_scale=0.5),
    ChainSampler(NegativeSampler(), AdversarialSampler()),
    ChainSampler(NegativeSampler(), Subsampler(k_variants=1)),
    ChainSampler(AdversarialSampler(eps=0.1), UniformSampler()),  # every first stage fails
]


@st.composite
def run_batches(draw):
    """A sampler, a victim, a budget, and runs drawing from a few pools that some share.

    The victim may answer labels only, or NaN at some pools' points or at
    points the gradient ascent reaches; a pool may hold too few negatives.
    """
    sampler = draw(st.sampled_from(RUN_SAMPLERS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.sampled_from([DESK_ARCH.layer_widths, (4, 16, 3)]))
    mlp = random_mlp(rng, widths, draw(st.sampled_from(["relu", "tanh"])), "victim")
    d, C = widths[0], widths[-1]
    pools = []
    for _ in range(draw(st.integers(1, 3))):
        points = rng.normal(0.0, 2.0, (draw(st.integers(1, 50)), d))
        points[:, 0] += draw(st.sampled_from([-4.0, 0.0, 4.0]))
        labels = mlp.predict(points)
        wrong = rng.random(len(points)) < draw(st.sampled_from([0.0, 0.25, 0.75]))
        labels[wrong] = labels[wrong] % C + 1
        pools.append(mp.LabeledDataset(points, labels, C))
    victim = draw(st.sampled_from(["mlp", "labels", "partly", "partly"]))
    if victim == "labels":
        mlp = lowered(mlp, "labels-only", Access.LABELS)
    elif victim == "partly":  # at quantile 1.0, only points the ascent moves can answer NaN
        x0 = np.concatenate([pool.points[:, 0] for pool in pools])
        mlp = PartlyNonFinite(mlp, np.quantile(x0, draw(st.sampled_from([0.7, 0.9, 1.0]))))
    n_runs = draw(st.integers(1, 6))
    runs = [pools[draw(st.integers(0, len(pools) - 1))] for _ in range(n_runs)]
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=n_runs, max_size=n_runs))
    budget = 2 * draw(st.integers(1, 10)) - draw(st.sampled_from([0, 0, 0, 1]))
    return sampler, mlp, runs, budget, seeds


def outcome(fn, *args):
    """A query set, or the error raised instead of one."""
    try:
        return fn(*args)
    except Exception as err:  # the error is the outcome
        return err


class TestSampleRunsMatchesOneRunAtATime:
    @settings(max_examples=200, deadline=None)
    @given(case=run_batches())
    def test_bit_equal_to_one_sample_call_per_run(self, case):
        sampler, model, pools, budget, seeds = case
        want = [outcome(sampler.sample, pool, model, budget, seed)
                for pool, seed in zip(pools, seeds)]
        raised = [w for w in want if isinstance(w, Exception)
                  and not isinstance(w, ModelprintError)]
        if raised:  # a bad budget or a missing model fails every run, and the whole call
            with pytest.raises(type(raised[0]), match=re.escape(str(raised[0]))):
                sampler.sample_runs(pools, model, budget, seeds)
            return
        failed = {(type(w), w.code, str(w)) for w in want if isinstance(w, ModelprintError)}
        if failed:  # the call raises what one of its failing runs raises alone
            with pytest.raises(ModelprintError) as info:
                sampler.sample_runs(pools, model, budget, seeds)
            assert (type(info.value), info.value.code, str(info.value)) in failed
            return
        got = sampler.sample_runs(pools, model, budget, seeds)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert isinstance(g, QuerySet)
            assert g.points.tobytes() == w.points.tobytes()
            assert g.pairing == w.pairing
            if w.source_indices is None:
                assert g.source_indices is None
            else:
                assert g.source_indices.tobytes() == w.source_indices.tobytes()
            assert g.provenance == w.provenance


class TestBlocks:
    @pytest.mark.parametrize("widths", [DESK_ARCH.layer_widths, (4, 16, 3)],
                             ids=["desk", "16-into-3"])
    @pytest.mark.parametrize("blocks, size", [(5, 1), (5, 2), (3, 13), (4, 100), (2, 500)])
    def test_blocks_answer_bit_for_bit_as_alone(self, widths, blocks, size):
        """Stacked (MLP, linear) and block-by-block (``PartlyNonFinite``) handles alike.

        A 500-row block reaches OpenBLAS's threaded path.  A 16-wide layer into 3
        classes answers a row by where it falls in one product over all rows.
        """
        rng = np.random.default_rng(size)
        mlp = random_mlp(rng, widths, "relu", "mlp")
        linear = mp.LinearClassifier(rng.normal(0.0, 2.0, (widths[-1], widths[0])))
        X = rng.normal(0.0, 2.0, (blocks * size, widths[0]))
        labels = rng.integers(1, widths[-1] + 1, len(X))
        for handle in (mlp, linear, PartlyNonFinite(mlp, np.inf)):
            for query in (handle.probits, handle.predict):
                alone = np.concatenate([query(x) for x in np.split(X, blocks)])
                assert query(X, blocks).tobytes() == alone.tobytes()
            alone = np.concatenate([handle.xent_input_gradient(x, y) for x, y in
                                    zip(np.split(X, blocks), np.split(labels, blocks))])
            assert handle.xent_input_gradient(X, labels, blocks).tobytes() == alone.tobytes()

    def test_gradient_ascent_blocks_ascend_as_alone(self):
        """One box per block; a 16-wide layer into 3 classes, as in ``mini_benchmark``."""
        rng = np.random.default_rng(0)
        mlp = random_mlp(rng, (4, 16, 3), "relu", "mlp")
        X = rng.normal(0.0, 2.0, (5 * 7, 4))
        labels = mlp.predict(X)
        eps, step = rng.random((5, 4)), rng.random((5, 4)) / 8
        alone = np.concatenate([
            projected_gradient_ascent(mlp, x, y, e, 6, s)
            for x, y, e, s in zip(np.split(X, 5), np.split(labels, 5), eps, step)])
        got = projected_gradient_ascent(mlp, X, labels, eps, 6, step, blocks=5)
        assert got.tobytes() == alone.tobytes()

    def test_blocks_must_split_evenly(self, quick_model):
        for blocks in (0, -1, 4):
            with pytest.raises(ValueError, match=f"10 points do not split into {blocks} equal"):
                quick_model.probits(np.zeros((10, 4)), blocks)
