import numpy as np
import pytest

from corpusgen import c4_violation_problem, two_type_problem
from tabevent import crf, ilp, oracle
from tabevent.core import LabelSet
from tabevent.ilp import DecodeProblem


def simple_problem(P, roles, groups=None, **kwargs):
    labels = LabelSet(roles, groups or {})
    P = np.asarray(P, dtype=float)
    A = kwargs.pop("A", np.zeros((len(labels), len(labels))))
    return DecodeProblem(P, A, labels, **kwargs)


class TestProblemValidation:
    def test_emission_shape(self):
        with pytest.raises(ValueError, match="emissions"):
            simple_problem(np.zeros((2, 9)), ["a"])

    def test_negative_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            simple_problem(np.zeros((2, 3)), ["a"], lambda_factor=-1.0)

    def test_zero_tokens(self):
        with pytest.raises(ValueError, match="at least one token"):
            simple_problem(np.zeros((0, 3)), ["a"])


class TestChecker:
    def test_clean(self):
        labels = LabelSet(["a", "b"], {"t": {"a", "b"}})
        assert ilp.check_constraints(["B-a", "I-a", "B-b"], labels) == []

    def test_orphan_inside(self):
        labels = LabelSet(["a"])
        out = ilp.check_constraints(["O", "I-a"], labels)
        assert len(out) == 1 and out[0].startswith("C3")

    def test_group_violation(self):
        labels = LabelSet(["a", "b"], {"t": {"a", "b"}})
        out = ilp.check_constraints(["B-a", "O"], labels)
        assert len(out) == 1 and out[0].startswith("C4")

    def test_unknown_tag(self):
        labels = LabelSet(["a"])
        out = ilp.check_constraints(["B-zzz"], labels)
        assert out and out[0].startswith("C1")


class TestIlpDecode:
    def test_no_groups_equals_constrained_viterbi(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            roles = ["a", "b"][: int(rng.integers(1, 3))]
            labels = LabelSet(roles)
            prob = DecodeProblem(
                rng.normal(size=(n, len(labels))),
                rng.normal(size=(len(labels), len(labels))),
                labels,
            )
            got = ilp.ilp_decode(prob)
            want = ilp.brute_force_decode(prob)
            assert got.tags == want.tags and got.score == want.score

    def test_group_forces_completion_or_removal(self):
        prob = c4_violation_problem()
        raw_path, _ = crf.viterbi(prob.emissions, prob.transitions)
        raw_tags = [prob.labels.labels[i] for i in raw_path]
        assert any(v.startswith("C4") for v in ilp.check_constraints(raw_tags, prob.labels))
        got = ilp.ilp_decode(prob)
        assert ilp.check_constraints(got.tags, prob.labels) == []
        want = ilp.brute_force_decode(prob)
        assert got.tags == want.tags and got.score == want.score
        # the constraint repaired the sequence by adding the missing role
        assert "B-t:b" in got.tags

    def test_random_suite_matches_brute_force(self):
        report = oracle.check_ilp(trials=60, seed=123)
        assert report.ok, report.failures[:3]

    def test_score_dominated_by_viterbi(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            prob = oracle.random_problem(rng)
            _, v_score = crf.viterbi(prob.emissions, prob.transitions)
            assert ilp.ilp_decode(prob).score <= v_score + 1e-12

    def test_all_outside_always_feasible(self):
        prob = simple_problem(np.zeros((1, 3)), ["a"], {"t": {"a"}})
        got = ilp.ilp_decode(prob)
        assert got is not None
        # a lone token cannot begin both key roles of its group
        P = np.zeros((1, 5))
        P[0, 1] = 5.0  # B-a
        prob = simple_problem(P, ["a", "b"], {"t": {"a", "b"}})
        assert ilp.ilp_decode(prob).tags == ("O",)
        res = ilp.ilp_decode_multi(prob)
        assert [s.tags for s in res.sequences] == [("O",)] and not res.truncated

    def test_single_token_single_label(self):
        prob = simple_problem(np.array([[1.5]]), [])
        got = ilp.ilp_decode(prob)
        assert got.tags == ("O",) and got.score == 1.5


class TestBruteForce:
    def test_too_large(self):
        labels = LabelSet(["a", "b", "c", "d"])  # 9 labels
        P = np.zeros((9, len(labels)))
        A = np.zeros((len(labels), len(labels)))
        with pytest.raises(ValueError, match="too large"):
            ilp.brute_force_decode(DecodeProblem(P, A, labels))

    def test_ranking_sorted(self):
        prob = two_type_problem()
        ranked = ilp.brute_force_decode(prob, ranking=True)
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(
            ilp.check_constraints(s.tags, prob.labels) == [] for s in ranked[:20]
        )


class TestMulti:
    def test_two_type_fixture(self):
        prob = two_type_problem()
        res = ilp.ilp_decode_multi(prob)
        assert len(res.sequences) == 2 and not res.truncated
        first, second = res.sequences
        assert first.score - second.score < prob.lambda_factor * prob.n
        types = set()
        for seq in res.sequences:
            assert ilp.check_constraints(seq.tags, prob.labels) == []
            types |= {t[2:].split(":")[0] for t in seq.tags if t.startswith("B-")}
        assert types == {"film.performance", "tv.appearance"}

    def test_matches_oracle_enumeration(self):
        prob = two_type_problem()
        res = ilp.ilp_decode_multi(prob)
        ranked = ilp.brute_force_decode(prob, ranking=True)
        lam = prob.lambda_factor * prob.n
        expected = [ranked[0]]
        for seq in ranked[1:]:
            if ranked[0].score - seq.score > lam:
                break
            expected.append(seq)
        assert [s.tags for s in res.sequences] == [s.tags for s in expected]

    def test_random_suite_matches_brute_force(self):
        report = oracle.check_ilp_multi(trials=60, seed=123)
        assert report.ok, report.failures[:3]

    def test_lambda_zero_returns_single(self):
        res = ilp.ilp_decode_multi(two_type_problem(lambda_factor=0.0))
        assert len(res.sequences) == 1

    def test_peaked_scores_return_single(self):
        P = np.zeros((4, 3))
        P[:, 1] = 10.0  # B-a everywhere dwarfs anything else
        prob = simple_problem(P, ["a"], lambda_factor=0.5)
        res = ilp.ilp_decode_multi(prob)
        assert len(res.sequences) == 1 and not res.truncated

    def test_truncation_flag(self):
        prob = two_type_problem(max_solutions=1)
        res = ilp.ilp_decode_multi(prob)
        assert len(res.sequences) == 1 and res.truncated

    def test_scores_nonincreasing_and_distinct(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            prob = oracle.random_problem(rng)
            prob.lambda_factor = 2.0
            res = ilp.ilp_decode_multi(prob)
            scores = [s.score for s in res.sequences]
            assert scores == sorted(scores, reverse=True)
            assert len({s.tags for s in res.sequences}) == len(res.sequences)
            assert scores[0] - scores[-1] <= prob.lambda_factor * prob.n
            for seq in res.sequences:
                assert ilp.check_constraints(seq.tags, prob.labels) == []
