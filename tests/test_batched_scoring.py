"""``FingerprintScheme.distances`` scores a cell's suspects as arrays, bit for bit.

The slow oracle is the one-model-at-a-time loop it replaced: answer each
model through its own query method, build its fingerprint with the
per-model payload code ``represent`` used to hold, and compare with the
per-fingerprint distance.  Both are kept here, so the public ``represent``
and ``fingerprint_distance`` (now K=1 callers of the stacked functions)
are checked against them too.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.core import Access
from modelprint.errors import AccessInsufficient, IncomparableFingerprints, NonFiniteAnswer
from modelprint.fingerprints import KINDS, fingerprint_distance, represent
from modelprint.harness import evaluate
from modelprint.samplers import Subsampler, UniformSampler
from modelprint.schemes import FingerprintScheme, SchemeSpec
from modelprint.tinylearn import MLPSpec, init_weights

from conftest import nan_copy, reference_cosine_distance


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
            qs, scheme._answers(victim, qs), kind, inner).tobytes()
        one_at_a_time = [
            fingerprint_distance(fp_v, represent(qs, scheme._answers(m, qs), kind, inner))
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
