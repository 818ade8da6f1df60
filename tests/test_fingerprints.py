"""Tests for fingerprint representations, distances, and calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelprint.errors import (
    EmptyCalibrationPool,
    IncomparableFingerprints,
    PairingRequired,
)
from modelprint.fingerprints import (
    Fingerprint,
    cosine_rows,
    fingerprint_distance,
    quantile_threshold,
    represent,
)
from modelprint.samplers import QuerySet

from conftest import reference_cosine_distance


def paired_query_set(s):
    half = s // 2
    return QuerySet(
        np.arange(s, dtype=np.float64).reshape(-1, 1),
        provenance={"sampler": "adversarial", "budget": s, "seed": 0},
        pairing=tuple((i, i + half) for i in range(half)),
    )


def plain_query_set(s, seed=0):
    return QuerySet(
        np.arange(s, dtype=np.float64).reshape(-1, 1),
        provenance={"sampler": "uniform", "budget": s, "seed": seed},
    )


def random_probits(rng, s, c=4):
    P = rng.random((s, c)) + 1e-3
    return P / P.sum(axis=1, keepdims=True)


class TestShapes:
    def test_pairwise_half_and_listwise_square(self):
        # 8 paired queries: pairwise payload has length 4, listwise is 8 x 8
        qs = paired_query_set(8)
        rng = np.random.default_rng(0)
        P = random_probits(rng, 8)
        assert represent(qs, P, "pairwise").payload.shape == (4,)
        assert represent(qs, P, "listwise").payload.shape == (8, 8)

    def test_raw_shapes(self):
        qs = plain_query_set(6)
        labels = np.array([1, 2, 3, 1, 2, 3])
        P = random_probits(np.random.default_rng(1), 6, c=3)
        assert represent(qs, labels, "raw_labels", "labels").payload.shape == (6,)
        assert represent(qs, P, "raw_probits").payload.shape == (6, 3)

    def test_identical_pair_answers_give_zero_payload(self):
        qs = paired_query_set(10)
        P = random_probits(np.random.default_rng(2), 5)
        fp = represent(qs, np.vstack([P, P]), "pairwise")
        np.testing.assert_allclose(fp.payload, 0.0, atol=1e-12)

    def test_listwise_diagonal_zero_and_symmetric(self):
        qs = plain_query_set(7)
        fp = represent(qs, random_probits(np.random.default_rng(3), 7), "listwise")
        np.testing.assert_array_equal(np.diag(fp.payload), np.zeros(7))
        assert np.abs(fp.payload - fp.payload.T).max() < 1e-9

    def test_pairing_required(self):
        qs = plain_query_set(4)
        with pytest.raises(PairingRequired):
            represent(qs, random_probits(np.random.default_rng(0), 4), "pairwise")

    def test_pairing_short_of_half_the_queries_refused(self):
        qs = QuerySet(np.arange(8, dtype=np.float64).reshape(-1, 1),
                      provenance={"sampler": "subsample"}, pairing=((0, 4), (1, 5), (2, 6)))
        with pytest.raises(PairingRequired, match="needs s/2 pairs, query set has 3 for s=8"):
            represent(qs, random_probits(np.random.default_rng(0), 8), "pairwise")

    def test_label_inner_distance_on_listwise(self):
        qs = plain_query_set(3)
        fp = represent(qs, np.array([1, 1, 2]), "listwise", "labels")
        np.testing.assert_array_equal(
            fp.payload, [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
        )


class TestDistance:
    def test_identity_is_zero(self):
        qs = plain_query_set(5)
        rng = np.random.default_rng(4)
        for kind, answers in [
            ("raw_labels", np.array([1, 2, 3, 2, 1])),
            ("raw_probits", random_probits(rng, 5)),
            ("listwise", random_probits(rng, 5)),
        ]:
            inner = "labels" if kind == "raw_labels" else "cosine"
            fp = represent(qs, answers, kind, inner)
            assert fingerprint_distance(fp, fp) == 0.0

    def test_total_label_disagreement(self):
        qs = plain_query_set(4)
        a = represent(qs, np.array([1, 2, 3, 4]), "raw_labels", "labels")
        b = represent(qs, np.array([2, 3, 4, 1]), "raw_labels", "labels")
        assert fingerprint_distance(a, b) == 1.0

    def test_hand_counted_label_case(self):
        qs = plain_query_set(4)
        a = represent(qs, np.array([1, 2, 3, 4]), "raw_labels", "labels")
        b = represent(qs, np.array([1, 2, 3, 1]), "raw_labels", "labels")
        assert fingerprint_distance(a, b) == 0.25

    def test_provenance_mismatch_rejected(self):
        a = represent(plain_query_set(4, seed=0), np.array([1, 2, 1, 2]), "raw_labels", "labels")
        b = represent(plain_query_set(4, seed=1), np.array([1, 2, 1, 2]), "raw_labels", "labels")
        with pytest.raises(IncomparableFingerprints):
            fingerprint_distance(a, b)

    def test_kind_mismatch_rejected(self):
        qs = plain_query_set(4)
        a = represent(qs, np.array([1, 2, 1, 2]), "raw_labels", "labels")
        b = represent(qs, random_probits(np.random.default_rng(0), 4), "raw_probits")
        with pytest.raises(IncomparableFingerprints):
            fingerprint_distance(a, b)

    def test_class_count_mismatch_rejected_before_arithmetic(self):
        qs = plain_query_set(3)
        rng = np.random.default_rng(0)
        a = represent(qs, random_probits(rng, 3, c=4), "raw_probits")
        b = represent(qs, random_probits(rng, 3, c=3), "raw_probits")
        for pair in ((a, b), (b, a)):
            with pytest.raises(IncomparableFingerprints, match="payload shapes") as err:
                fingerprint_distance(*pair)
            assert err.value.code == "incomparable-fingerprints"

    def test_cosine_zero_vector_convention(self):
        assert cosine_rows([np.zeros(3)], [np.zeros(3)])[0] == 0.0
        assert cosine_rows([np.zeros(3)], [np.ones(3)])[0] == 1.0
        assert cosine_rows([np.ones(3)], [np.ones(3)])[0] == pytest.approx(0.0, abs=1e-12)


ROW_KINDS = ("probits", "scaled", "zero_u", "zero_v", "zero_both", "identical", "sign")


def oracle_rows(rng, kinds, c):
    """Row pairs of each kind: probit rows, rows of mixed scale, zero and equal rows."""
    U, V = rng.random((len(kinds), c)), rng.random((len(kinds), c))
    for i, kind in enumerate(kinds):
        if kind == "probits":
            U[i] /= U[i].sum()
            V[i] /= V[i].sum()
        elif kind == "scaled":
            U[i] *= 10.0 ** rng.uniform(-6, 6)
            V[i] *= 10.0 ** rng.uniform(-6, 6)
        elif kind == "sign":
            U[i] -= 0.5
            V[i] = -U[i] if rng.random() < 0.5 else V[i] - 0.5
        if kind in ("zero_u", "zero_both"):
            U[i] = 0.0
        if kind in ("zero_v", "zero_both"):
            V[i] = 0.0
        if kind == "identical":
            V[i] = U[i]
    return U, V


class TestCosineMatchesScalarOracle:
    """``cosine_rows`` gives the scalar loop's exact bits, on one row or many."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.integers(2, 100),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=40),
    )
    def test_rows_bit_equal(self, seed, c, kinds):
        U, V = oracle_rows(np.random.default_rng(seed), kinds, c)
        want = np.array([reference_cosine_distance(u, v) for u, v in zip(U, V)])
        assert cosine_rows(U, V).tobytes() == want.tobytes()
        for u, v, w in zip(U, V, want):
            assert cosine_rows([u], [v])[0] == w
        # the flattened payloads of pairwise and listwise fingerprints
        assert cosine_rows([U.ravel()], [V.ravel()])[0] == reference_cosine_distance(U, V)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.integers(2, 100),
        k=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=20),
    )
    def test_one_array_against_a_stack_bit_equal(self, seed, c, k, kinds):
        """One ``(n, C)`` array against a ``(K, n, C)`` stack, row for row and flattened to
        ``(1, L)`` against ``(K, 1, L)`` as ``_distances`` compares a victim's payload."""
        rng = np.random.default_rng(seed)
        U = oracle_rows(rng, kinds, c)[0]
        V = np.stack([oracle_rows(rng, kinds, c)[1] for _ in range(k)])
        for j, i in np.ndindex(k, len(U)):
            # an identical row, a scaled copy (a quarter of them clamp from just below 0),
            # a zero row, or the drawn one
            V[j, i] = (U[i], 3.0 * U[i], 0.0, V[j, i])[rng.integers(4)]
        want = [[reference_cosine_distance(u, v) for u, v in zip(U, Vj)] for Vj in V]
        assert cosine_rows(U, V).tobytes() == np.array(want).tobytes()
        flat = cosine_rows(U.reshape(1, -1), V.reshape(k, 1, -1))
        want = [[reference_cosine_distance(U, Vj)] for Vj in V]
        assert flat.tobytes() == np.array(want).tobytes()

    def test_broadcast_covers_identical_zero_and_clamped_rows(self):
        u = np.array([0.1, 0.2, 0.7])
        assert 1.0 - u @ (3.0 * u) / (np.linalg.norm(u) * np.linalg.norm(3.0 * u)) < 0.0
        V = np.array([[u], [3.0 * u], [np.zeros(3)], [-u]])
        want = [reference_cosine_distance(u, v) for v in V]
        assert want[:3] == [0.0, 0.0, 1.0]
        assert cosine_rows(u[None], V).ravel().tolist() == want
        assert cosine_rows(np.zeros((1, 3)), V).ravel().tolist() == [1.0, 1.0, 0.0, 1.0]

    def test_overflowing_rows_clamp_to_zero(self):
        """Rows whose dot products overflow give ``1 - inf / inf``, a NaN, which clamps to 0
        as the scalar formula's ``max(0.0, x)`` does."""
        U = np.array([[1e200, 2e200, 3e200], [0.1, 0.2, 0.7]])
        V = np.array([[3e200, 2e200, 1e200], [0.7, 0.2, 0.1]])
        with np.errstate(over="ignore", invalid="ignore"):
            want = [reference_cosine_distance(u, v) for u, v in zip(U, V)]
            got = cosine_rows(U, V).tolist()
        assert want[0] == 0.0 < want[1]
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 99, 100, 2500, 10_000])
    def test_long_vectors_bit_equal(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            u, v = rng.random(n), rng.random(n)
            assert cosine_rows([u], [v])[0] == reference_cosine_distance(u, v)


def labels_fingerprint(qs, mismatches, s):
    base = np.ones(s, dtype=np.int64)
    other = base.copy()
    other[:mismatches] = 2
    return (
        represent(qs, base, "raw_labels", "labels"),
        represent(qs, other, "raw_labels", "labels"),
    )


def calibrate(victim, pool, target_fpr):
    """The quantile threshold of the pool members' distances to the victim."""
    return quantile_threshold([fingerprint_distance(victim, fp) for fp in pool], target_fpr)


class TestCalibration:
    def build_pool(self, distances, s=20):
        # pool member with d*s mismatching labels sits at distance d
        qs = plain_query_set(s)
        victim = represent(qs, np.ones(s, dtype=np.int64), "raw_labels", "labels")
        members = []
        for d in distances:
            answers = np.ones(s, dtype=np.int64)
            answers[: int(round(d * s))] = 2
            members.append(represent(qs, answers, "raw_labels", "labels"))
        return victim, tuple(members)

    def test_hand_quantile(self):
        distances = [k / 10 for k in range(1, 11)]
        victim, pool = self.build_pool(distances)
        thr = calibrate(victim, pool, 0.05)
        assert thr <= 0.1
        flagged = [fingerprint_distance(victim, fp) < thr for fp in pool]
        assert sum(flagged) == 0

    def test_target_one_flags_everything(self):
        victim, pool = self.build_pool([0.1, 0.5, 1.0])
        thr = calibrate(victim, pool, 1.0)
        assert thr > 1.0  # strictly above the max pool distance

    def test_target_zero(self):
        victim, pool = self.build_pool([0.3, 0.6])
        assert calibrate(victim, pool, 0.0) <= 0.3

    def test_empty_pool_rejected(self):
        qs = plain_query_set(4)
        victim = represent(qs, np.ones(4, dtype=np.int64), "raw_labels", "labels")
        with pytest.raises(EmptyCalibrationPool):
            calibrate(victim, (), 0.1)

    def test_heterogeneous_pool_rejected(self):
        a = represent(plain_query_set(4, 0), np.ones(4, dtype=np.int64), "raw_labels", "labels")
        b = represent(plain_query_set(4, 1), np.ones(4, dtype=np.int64), "raw_labels", "labels")
        with pytest.raises(IncomparableFingerprints):
            calibrate(a, (a, b), 0.1)

    @given(
        mism=st.lists(st.integers(0, 20), min_size=1, max_size=25),
        target=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_pool_fpr_never_exceeds_target(self, mism, target):
        distances = [m / 20 for m in mism]  # label fingerprints of 20 queries, m mismatches
        thr = quantile_threshold(distances, target)
        fpr = np.mean([d < thr for d in distances])
        assert fpr <= target + 1e-9

    @pytest.mark.parametrize("flagged, m", [(29, 50), (29, 100), (57, 100), (58, 100)])
    def test_target_of_whole_members_flags_that_many(self, flagged, m):
        """At ``target_fpr = flagged / m`` the threshold flags ``flagged`` of ``m`` distinct
        distances, also where ``target_fpr * m`` rounds a hair below ``flagged``."""
        distances = np.arange(m) / m
        threshold = quantile_threshold(distances, flagged / m)
        assert np.sum(distances < threshold) == flagged


class TestSerialization:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Fingerprint("pairwise", np.zeros(3), {"sampler": "x"}, 8)
