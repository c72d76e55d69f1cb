import dataclasses
import gc
import hashlib
import itertools
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from corpusgen import c4_violation_problem, two_type_problem
from test_crf import chain_draws
from tabevent import crf, ilp, oracle
from tabevent.core import LabelSet, bio_wellformed
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

    def test_non_finite_emissions(self):
        P = np.zeros((2, 3))
        P[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            simple_problem(P, ["a"])

    def test_non_finite_transitions(self):
        A = np.zeros((3, 3))
        A[0, 1] = -np.inf
        with pytest.raises(ValueError, match="finite"):
            simple_problem(np.zeros((2, 3)), ["a"], A=A)

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    def test_max_solutions_not_integer(self, bad):
        with pytest.raises(ValueError, match="max_solutions must be an integer"):
            simple_problem(np.zeros((2, 3)), ["a"], max_solutions=bad)

    @pytest.mark.parametrize("lambda_factor, max_solutions, message", [
        (float("nan"), 1, "lambda_factor must be non-negative and finite"),
        (float("inf"), 1, "lambda_factor must be non-negative and finite"),
        (0.0, 0, "max_solutions must be at least 1"),
    ])
    def test_decode_settings_checked_without_a_problem(self, lambda_factor, max_solutions, message):
        with pytest.raises(ValueError, match=message):
            ilp.check_decode_settings(lambda_factor, max_solutions)
        with pytest.raises(ValueError, match=message):
            simple_problem(np.zeros((2, 3)), ["a"], lambda_factor=lambda_factor, max_solutions=max_solutions)

    def test_max_solutions_numpy_integer(self):
        prob = simple_problem(np.zeros((2, 3)), ["a"], max_solutions=np.int64(2))
        assert len(ilp.ilp_decode_multi(prob).sequences) == 2


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


def suffix_pass(P, allowed_A):
    """(S, nxt) as `_search` takes them: Viterbi's loop on the reversed sentence and lattice."""
    into, back = crf.best_into(P[::-1], allowed_A.T)
    return into[::-1], back[::-1]


def incumbent(prob):
    """ilp._incumbent's path and score, from the lattice `_search` builds for prob."""
    lattice = ilp._lattice(prob)
    S, nxt = suffix_pass(prob.emissions, lattice.allowed_A)
    return ilp._incumbent(prob.labels, prob.emissions.tolist(), lattice, S.tolist(), nxt)


def reference_suffix(P, allowed_A):
    """The right-to-left loop that `suffix_pass` replaced, kept verbatim as a reference."""
    n, L = P.shape
    S = np.zeros((n, L))
    nxt = np.zeros((n, L), dtype=np.intp)
    v = np.empty(L)
    tmp = np.empty((L, L))
    for t in range(n - 2, -1, -1):
        np.add(P[t + 1], S[t + 1], out=v)
        np.add(allowed_A, v, out=tmp)
        np.maximum.reduce(tmp, axis=1, out=S[t])
        tmp.argmax(axis=1, out=nxt[t])
    return S, nxt


class TestSuffixPass:
    def test_matches_the_right_to_left_loop(self):
        """The same bound and next labels on 2,100 `chain_draws`, with -inf in none, 30% or
        70% of the transitions. S is compared by value: np.maximum.reduce may return the
        other zero of a tie."""
        rng = np.random.default_rng(14)
        for P, A, _ in chain_draws(13, 2100):
            allowed_A = np.where(rng.random(size=A.shape) < rng.choice([0.0, 0.3, 0.7]), -np.inf, A)
            S, nxt = suffix_pass(P, allowed_A)
            want_S, want_nxt = reference_suffix(P, allowed_A)
            assert np.array_equal(S, want_S) and np.array_equal(nxt, want_nxt)


class TestIncumbent:
    def test_feasible_and_at_most_the_optimum(self):
        rng = np.random.default_rng(6)
        overlapping = 0
        for _ in range(300):
            prob = oracle.random_problem(rng, max_len=8, max_labels=9, n_groups=3)
            groups = list(prob.labels.groups.values())
            overlapping += any(g & h for i, g in enumerate(groups) for h in groups[i + 1:])
            path, score = incumbent(prob)
            assert ilp.check_constraints([prob.labels.labels[l] for l in path], prob.labels) == []
            assert score == crf.seq_score(prob.emissions, prob.transitions, path)
            assert score <= ilp.ilp_decode(prob).score
        assert overlapping >= 100

    def test_clears_until_no_group_is_partly_begun(self):
        # Viterbi begins r1 and r2, so only {r0, r2} is partly begun. Clearing
        # r0 and r2 leaves {r1, r2} partly begun, so r1 is cleared too.
        labels = LabelSet(["r0", "r1", "r2"], {"a": {"r2"}, "b": {"r1", "r2"}, "c": {"r0", "r2"}})
        P = np.zeros((2, len(labels)))
        P[0, labels.index("B-r1")] = P[1, labels.index("B-r2")] = 3.0
        prob = DecodeProblem(P, np.zeros((len(labels), len(labels))), labels)
        assert crf.viterbi(P, prob.transitions)[0] == [labels.index("B-r1"), labels.index("B-r2")]
        assert incumbent(prob) == ([0, 0], 0.0)


class TestBruteForce:
    def test_too_large(self):
        labels = LabelSet(["a", "b", "c", "d"])  # 9 labels
        P = np.zeros((9, len(labels)))
        A = np.zeros((len(labels), len(labels)))
        with pytest.raises(ValueError, match="too large"):
            ilp.brute_force_decode(DecodeProblem(P, A, labels))

    def test_ranking_pinned_to_seq_score_and_path_order(self):
        rng = np.random.default_rng(8)
        for trial in range(400):
            prob = oracle.random_problem(rng, max_len=6, max_labels=7, n_groups=3)
            if trial % 2:
                P = rng.integers(-1, 2, size=prob.emissions.shape)
                A = rng.integers(-1, 2, size=prob.transitions.shape)
                prob = DecodeProblem(P, A, prob.labels)
            ranked = ilp.brute_force_decode(prob, ranking=True)
            paths = [[prob.labels.index(tag) for tag in seq.tags] for seq in ranked]
            for seq, path in zip(ranked, paths):
                assert seq.score.hex() == crf.seq_score(prob.emissions, prob.transitions, path).hex()
            keys = [(-seq.score, path[::-1]) for seq, path in zip(ranked, paths)]
            assert keys == sorted(keys)
            assert ilp.brute_force_decode(prob) == ranked[0]

    def test_helpers_match_the_path_loop(self):
        """The enumerator, scorer and tie order against one seq_score call per itertools path."""
        rng = np.random.default_rng(9)
        for trial in range(300):
            n, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            P, A = rng.normal(size=(n, L)), rng.normal(size=(L, L))
            if trial % 2:
                P, A = rng.integers(-1, 2, size=P.shape) * 1.0, rng.integers(-1, 2, size=A.shape) * 1.0
            seqs = ilp._all_paths(n, L)
            loop = list(itertools.product(range(L), repeat=n))
            assert [tuple(row) for row in seqs.tolist()] == loop
            scores = ilp._path_scores(P, A, seqs)
            assert [s.hex() for s in scores.tolist()] == [crf.seq_score(P, A, y).hex() for y in loop]
            keys = [(-crf.seq_score(P, A, y), y[::-1]) for y in loop]
            assert [loop[i] for i in ilp._ranked(seqs, scores)] == [y for _, y in sorted(zip(keys, loop))]

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


def _random_problems(rng, count, ties):
    for _ in range(count):
        prob = oracle.random_problem(rng, max_len=7, max_labels=7, n_groups=3)
        P, A = prob.emissions, prob.transitions
        if ties:
            P, A = rng.integers(-1, 2, size=P.shape), rng.integers(-1, 2, size=A.shape)
        yield DecodeProblem(
            P,
            A,
            prob.labels,
            lambda_factor=float(rng.choice([0.0, 0.5, 2.0])),
            max_solutions=int(rng.integers(1, 12)),
        )


def _typed_problems(rng, count):
    """Two or three event types of three key roles each, O favoured, as a tagger scores them."""
    for _ in range(count):
        types = int(rng.integers(2, 4))
        roles = [f"t{i}:r{j}" for i in range(types) for j in range(3)]
        labels = LabelSet(roles, {f"t{i}": roles[3 * i : 3 * i + 3] for i in range(types)})
        n = int(rng.integers(4, 11))
        P = rng.normal(scale=2.0, size=(n, len(labels)))
        P[:, 0] += 2.0
        A = rng.normal(scale=0.5, size=(len(labels), len(labels)))
        yield DecodeProblem(P, A, labels)


class TestBitIdentity:
    """Pinned outputs: any change to a score bit, prune or tie order shows.

    The digests were taken from the decoder that rebuilt its lattice with
    numpy on every decode, before the per-label-set tables.
    """

    @pytest.mark.parametrize(
        "problems, want",
        [
            (lambda: _random_problems(np.random.default_rng(1), 2000, ties=False),
             "9dfb76a9ccb71781ac22a51ae1b554ea4debf092734918f203f744e637c564eb"),
            (lambda: _random_problems(np.random.default_rng(2), 600, ties=True),
             "d8fa926a9b30d2c7f73c60d8b1e6bcc582d079da2cf809048d5fa0fec00d48ac"),
            (lambda: _typed_problems(np.random.default_rng(3), 40),
             "e8ee7740215f10f53e49d3b07df0da4343f9fa87069bae4239962669a49fee4d"),
        ],
        ids=["random", "integer-ties", "typed"],
    )
    def test_pinned_digest(self, problems, want):
        digest = hashlib.sha256()
        for prob in problems():
            best = ilp.ilp_decode(prob)
            multi = ilp.ilp_decode_multi(prob)
            record = (
                best.tags,
                best.score.hex(),
                [(s.tags, s.score.hex()) for s in multi.sequences],
                multi.truncated,
            )
            digest.update(repr(record).encode())
        assert digest.hexdigest() == want


def flat_problem(n_types, n_tokens):
    """n_types event types x 3 key roles over n_tokens tokens, emissions and then transitions
    drawn N(0, 0.01) from default_rng(0)."""
    roles = [f"t{i}:r{j}" for i in range(n_types) for j in range(3)]
    labels = LabelSet(roles, {f"t{i}": roles[3 * i : 3 * i + 3] for i in range(n_types)})
    rng = np.random.default_rng(0)
    L = len(labels)
    return DecodeProblem(rng.normal(0, 0.01, size=(n_tokens, L)), rng.normal(0, 0.01, size=(L, L)),
                         labels)


def flat_six_type_problem():
    """6 event types x 3 key roles, 20 tokens, every score near 0: so many paths tie within
    the bound that a search without a node budget ran out of memory here."""
    return flat_problem(6, 20)


class TestNodeBudget:
    @pytest.mark.parametrize("decoder", ["ilp", "ilp_multi"])
    def test_flat_scores_over_six_groups_end_feasible(self, decoder):
        """Under 2 s untraced, and a tracemalloc peak under 200 MB in a second decode."""
        prob = flat_six_type_problem()

        def decode():
            return [ilp.ilp_decode(prob)] if decoder == "ilp" else ilp.ilp_decode_multi(prob).sequences

        start = time.perf_counter()
        sequences = decode()
        assert time.perf_counter() - start < 2.0
        assert sequences
        for seq in sequences:
            assert ilp.check_constraints(seq.tags, prob.labels) == []
            assert seq.score == crf.seq_score(prob.emissions, prob.transitions,
                                              [prob.labels.index(tag) for tag in seq.tags])
        tracemalloc.start()
        try:
            decode()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6

    def test_says_when_it_ran_out(self):
        assert not ilp.ilp_decode_multi(flat_six_type_problem()).exact
        assert ilp.ilp_decode_multi(two_type_problem()).exact

    def test_not_reached_on_the_pinned_draws(self):
        """TestBitIdentity's draws; its typed ones push at most 103 nodes per token and label."""
        for prob in itertools.chain(_random_problems(np.random.default_rng(1), 2000, ties=False),
                                    _random_problems(np.random.default_rng(2), 600, ties=True),
                                    _typed_problems(np.random.default_rng(3), 40)):
            assert ilp._search(prob, prob.lambda_factor * prob.n, prob.max_solutions + 1)[1]

    def test_no_budget_returns_the_incumbent(self, monkeypatch):
        """With no node to spare, the first expansion ends the search; one token needs none."""
        monkeypatch.setattr(ilp, "NODE_BUDGET", 0)
        rng = np.random.default_rng(8)
        for _ in range(100):
            prob = oracle.random_problem(rng, max_len=8, max_labels=9, n_groups=3)
            found, exact = ilp._search(prob, 2.0 * prob.n, 5)
            assert exact if prob.n == 1 else (found, exact) == ([incumbent(prob)], False)

    def test_over_budget_returns_finished_paths_best_first(self, monkeypatch):
        """Feasible paths by descending score, within the gap of the first, which is at least the
        incumbent. Paths still waiting on a tie are returned too: on integer scores some lists
        are neither the incumbent nor the first results of the search without a budget."""
        draws = list(_random_problems(np.random.default_rng(2), 300, ties=True))
        exact_results = [ilp._search(prob, prob.lambda_factor * prob.n, prob.max_solutions + 1)[0]
                         for prob in draws]
        monkeypatch.setattr(ilp, "NODE_BUDGET", 2)
        cut, with_waiting = 0, 0
        for prob, full in zip(draws, exact_results):
            gap = prob.lambda_factor * prob.n
            found, exact = ilp._search(prob, gap, prob.max_solutions + 1)
            scores = [score for _, score in found]
            assert 1 <= len(found) <= prob.max_solutions + 1
            assert scores == sorted(scores, reverse=True) and scores[0] - scores[-1] <= gap
            assert scores[0] >= incumbent(prob)[1]
            for path, score in found:
                assert ilp.check_constraints([prob.labels.labels[l] for l in path], prob.labels) == []
                assert score == crf.seq_score(prob.emissions, prob.transitions, path)
            cut += not exact
            with_waiting += found not in (full[: len(found)], [incumbent(prob)])
        assert cut >= 50 and with_waiting >= 10


class TestNodeCap:
    def test_cap_below_the_budget_ends_the_search(self, monkeypatch):
        """A cap of 2 x n x L nodes ends the search where NODE_BUDGET = 2 does, quickly, with
        feasible paths that are not proven the best."""
        prob = flat_six_type_problem()
        gap, k = prob.lambda_factor * prob.n, prob.max_solutions + 1
        monkeypatch.setattr(ilp, "NODE_BUDGET", 2)
        by_budget = ilp._search(prob, gap, k)
        monkeypatch.undo()
        monkeypatch.setattr(ilp, "NODE_CAP", 2 * prob.n * len(prob.labels))
        start = time.perf_counter()
        found, exact = ilp._search(prob, gap, k)
        assert time.perf_counter() - start < 0.5
        assert (found, exact) == by_budget and not exact
        for path, score in found:
            assert ilp.check_constraints([prob.labels.labels[l] for l in path], prob.labels) == []
            assert score == crf.seq_score(prob.emissions, prob.transitions, path)
        assert not ilp.ilp_decode_multi(prob).exact
        assert ilp.check_constraints(ilp.ilp_decode(prob).tags, prob.labels) == []


class TestDecodeTables:
    def test_built_once_per_label_set(self):
        labels = LabelSet(["a", "b"], {"t": {"a", "b"}})
        A = np.arange(25.0).reshape(5, 5)
        first = ilp._lattice(DecodeProblem(np.zeros((2, 5)), A, labels))
        assert ilp._lattice(DecodeProblem(np.ones((3, 5)), A.copy(), labels)) is first
        assert ilp._lattice(DecodeProblem(np.zeros((2, 5)), A + 1, labels)) is not first
        assert ilp._lattice(DecodeProblem(np.zeros((2, 5)), A, LabelSet(["a", "b"]))) is not first

    def test_match_lattice_and_masks(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            labels = oracle.random_label_set(rng, max_labels=9, n_groups=3)
            A = rng.normal(size=(len(labels), len(labels)))
            lattice = ilp._lattice(DecodeProblem(np.zeros((1, len(labels))), A, labels))
            start_ok, allowed, label_bits, group_masks = ilp.transition_lattice(labels)
            assert lattice.key == A.tobytes()
            assert lattice.starts == tuple(np.flatnonzero(start_ok).tolist())
            assert lattice.succ == tuple(tuple(np.flatnonzero(row).tolist()) for row in allowed)
            assert lattice.label_bits == tuple(label_bits.tolist())
            assert lattice.group_masks == tuple(group_masks)
            assert np.array_equal(lattice.allowed_A, np.where(allowed, A, -np.inf))
            assert lattice.A == tuple(map(tuple, A.tolist()))

    def test_read_only(self):
        labels = LabelSet(["a", "b"], {"t": {"a", "b"}})
        lattice = ilp._lattice(DecodeProblem(np.zeros((1, 5)), np.zeros((5, 5)), labels))
        with pytest.raises(ValueError):
            lattice.allowed_A[0, 2] = 0.0
        with pytest.raises(TypeError):
            lattice.succ[0] = ()
        with pytest.raises(TypeError):
            lattice.label_bits[1] = 0
        with pytest.raises(TypeError):
            lattice.group_masks[0] = 0
        with pytest.raises(TypeError):
            lattice.starts[0] = 2
        with pytest.raises(TypeError):
            lattice.A[0] = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            lattice.succ = ()

    def test_transitions_edited_in_place(self):
        rng = np.random.default_rng(7)
        changed = 0
        for _ in range(20):
            prob = oracle.random_problem(rng, max_len=6, max_labels=9, n_groups=3)
            before = ilp.ilp_decode_multi(prob)
            prob.transitions[...] = rng.normal(size=prob.transitions.shape)
            got = ilp.ilp_decode_multi(prob)
            labels = LabelSet(prob.labels.roles, prob.labels.groups)
            assert got == ilp.ilp_decode_multi(DecodeProblem(prob.emissions, prob.transitions, labels))
            changed += got != before
        assert changed >= 10

    def test_no_module_level_growth(self):
        def module_sizes():
            return {
                name: len(value)
                for name, value in vars(ilp).items()
                if isinstance(value, (dict, list, set))
            }

        before = module_sizes()
        rng = np.random.default_rng(5)
        refs = []
        for _ in range(1000):
            prob = oracle.random_problem(rng, max_len=3, max_labels=9, n_groups=3)
            ilp.ilp_decode_multi(prob)
            refs.append(weakref.ref(prob.labels))
            del prob
        assert module_sizes() == before
        gc.collect()
        assert not any(ref() is not None for ref in refs)


class TestOraclesBite:
    """The exhaustive ilp checks report a fault planted in the decoder."""

    def test_ilp_decode_second_best(self, monkeypatch):
        def second_best(prob):
            path, score = ilp._search(prob, float("inf"), 2)[0][-1]
            return ilp._to_sequence(prob, path, score)

        monkeypatch.setattr(ilp, "ilp_decode", second_best)
        assert len(oracle.check_ilp(trials=100, seed=1).failures) >= 90

    def test_ilp_decode_multi_truncated_flipped(self, monkeypatch):
        real = ilp.ilp_decode_multi

        def flipped(prob):
            res = real(prob)
            return ilp.MultiDecodeResult(res.sequences, not res.truncated)

        monkeypatch.setattr(ilp, "ilp_decode_multi", flipped)
        assert len(oracle.check_ilp_multi(trials=100, seed=1).failures) == 100


# Rule C3's two scans as they were before they shared `core.orphan_insides`, verbatim: the
# references for TestOneC3Scan.
def _bio_wellformed_before(tags, label_set):
    """True iff no I-role tag starts the sequence or follows a foreign tag."""
    if len(tags) == 0:
        raise ValueError("empty tag sequence")
    prev = None
    for tag in tags:
        if tag not in label_set:
            raise ValueError(f"unknown tag: {tag!r}")
        if tag.startswith("I-"):
            role = tag[2:]
            if prev not in (f"B-{role}", f"I-{role}"):
                return False
        prev = tag
    return True


def _check_constraints_before(tags, labels):
    tags = [t for t in tags]
    violations = []
    for i, tag in enumerate(tags):
        if tag not in labels:
            violations.append(f"C1: unknown tag {tag!r} at position {i}")
    if violations:
        return violations
    prev = None
    for i, tag in enumerate(tags):
        if tag.startswith("I-"):
            role = tag[2:]
            if prev not in (f"B-{role}", f"I-{role}"):
                violations.append(f"C3: I-{role} at position {i} has no live {role} span")
        prev = tag
    begun = {t[2:] for t in tags if t.startswith("B-")}
    for event_type, group in sorted(labels.groups.items()):
        present = group & begun
        if present and present != group:
            missing = sorted(group - present)
            violations.append(
                f"C4: event type {event_type} has key roles {sorted(present)} "
                f"without {missing}"
            )
    return violations


def _outcome(check, *args):
    try:
        return "value", check(*args)
    except ValueError as exc:
        return "error", str(exc)


class TestOneC3Scan:
    def test_matches_the_two_scans_before(self):
        rng = np.random.default_rng(11)
        seen = dict.fromkeys(["empty", "unknown", "orphan", "both", "unknown-first", "orphan-first", "c4"], 0)
        for _ in range(3000):
            labels = oracle.random_label_set(rng, max_labels=9, n_groups=3)
            pool = [*labels.labels, "B-zzz", "I-zzz", "X", None]
            weights = np.array([4.0] * len(labels) + [1.0] * 4)
            n = int(rng.integers(0, 8))
            tags = [pool[i] for i in rng.choice(len(pool), size=n, p=weights / weights.sum())]
            want = _check_constraints_before(tags, labels)
            assert ilp.check_constraints(tags, labels) == want
            assert _outcome(bio_wellformed, tags, labels) == _outcome(_bio_wellformed_before, tags, labels)

            unknown = [i for i, t in enumerate(tags) if t not in labels]
            orphan = [i for i, t in enumerate(tags) if isinstance(t, str) and t.startswith("I-")
                      and (i == 0 or tags[i - 1] not in (f"B-{t[2:]}", t))]
            seen["empty"] += not tags
            seen["unknown"] += bool(unknown)
            seen["orphan"] += bool(orphan)
            seen["both"] += bool(unknown and orphan)
            seen["unknown-first"] += bool(unknown and orphan) and unknown[0] < orphan[0]
            seen["orphan-first"] += bool(unknown and orphan) and orphan[0] < unknown[0]
            seen["c4"] += any(v.startswith("C4") for v in want)
        assert min(seen.values()) >= 50, seen
