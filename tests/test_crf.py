import itertools

import numpy as np
import pytest

from tabevent import crf, oracle


def random_instance(rng, n=None, L=None):
    n = n or int(rng.integers(1, 7))
    L = L or int(rng.integers(2, 5))
    return rng.normal(size=(n, L)), rng.normal(size=(L, L))


class TestSeqScore:
    def test_single_token(self):
        P = np.array([[1.0, 2.0, 3.0]])
        A = np.zeros((3, 3))
        assert crf.seq_score(P, A, [2]) == 3.0

    def test_all_zero_scores(self):
        P = np.zeros((3, 2))
        A = np.zeros((2, 2))
        for y in itertools.product(range(2), repeat=3):
            assert crf.seq_score(P, A, list(y)) == 0.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        P = rng.normal(size=(4, 3))
        A = rng.normal(size=(3, 3))
        y = [2, 0, 1, 1]
        direct = sum(P[i, y[i]] for i in range(4)) + sum(
            A[y[i], y[i + 1]] for i in range(3)
        )
        assert crf.seq_score(P, A, y) == pytest.approx(direct, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            crf.seq_score(np.zeros((2, 2)), np.zeros((2, 2)), [0, 2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            crf.seq_score(np.zeros((2, 2)), np.zeros((2, 2)), [0])


class TestLogPartition:
    def test_single_token_is_logsumexp(self):
        P = np.array([[0.5, -1.0, 2.0]])
        A = np.zeros((3, 3))
        expected = np.log(np.exp(P[0]).sum())
        assert crf.log_partition(P, A) == pytest.approx(expected, rel=1e-12)

    def test_shift_identity(self):
        rng = np.random.default_rng(2)
        P, A = random_instance(rng, n=5, L=3)
        base = crf.log_partition(P, A)
        shifted = crf.log_partition(P + 1.7, A)
        assert shifted == pytest.approx(base + 5 * 1.7, rel=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            P, A = random_instance(rng)
            n, L = P.shape
            scores = [
                crf.seq_score(P, A, list(y))
                for y in itertools.product(range(L), repeat=n)
            ]
            m = max(scores)
            want = m + np.log(np.sum(np.exp(np.array(scores) - m)))
            assert crf.log_partition(P, A) == pytest.approx(want, rel=1e-9)

    def test_direction_invariance(self):
        # running the recursion right-to-left equals reversing the problem
        rng = np.random.default_rng(4)
        for _ in range(10):
            P, A = random_instance(rng)
            fwd = crf.log_partition(P, A)
            rev = crf.log_partition(P[::-1], A.T)
            assert rev == pytest.approx(fwd, rel=1e-9)


class TestNll:
    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            P, A = random_instance(rng)
            gold = [int(g) for g in rng.integers(0, P.shape[1], size=P.shape[0])]
            loss, _, _ = crf.nll_loss_and_grads(P, A, gold)
            assert loss >= 0.0

    def test_peaked_scores_drive_loss_to_zero(self):
        n, L = 4, 3
        gold = [0, 1, 2, 0]
        P = np.zeros((n, L))
        for i, g in enumerate(gold):
            P[i, g] = 50.0
        loss, _, _ = crf.nll_loss_and_grads(P, np.zeros((L, L)), gold)
        assert loss < 1e-6

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        P, A = random_instance(rng, n=4, L=3)
        gold = [1, 0, 2, 1]
        _, dP, dA = crf.nll_loss_and_grads(P, A, gold)
        eps = 1e-5
        for mat, grad in ((P, dP), (A, dA)):
            it = np.nditer(mat, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = mat[idx]
                mat[idx] = orig + eps
                hi, _, _ = crf.nll_loss_and_grads(P, A, gold)
                mat[idx] = orig - eps
                lo, _, _ = crf.nll_loss_and_grads(P, A, gold)
                mat[idx] = orig
                assert (hi - lo) / (2 * eps) == pytest.approx(grad[idx], abs=1e-5)
                it.iternext()

    def test_malformed_gold(self):
        with pytest.raises(ValueError):
            crf.nll_loss_and_grads(np.zeros((2, 2)), np.zeros((2, 2)), [0, 7])


class TestViterbi:
    def test_single_token_argmax(self):
        P = np.array([[0.1, 5.0, -2.0]])
        path, score = crf.viterbi(P, np.zeros((3, 3)))
        assert path == [1] and score == 5.0

    def test_neg_inf_off_diagonal_forces_constant(self):
        rng = np.random.default_rng(7)
        P = rng.normal(size=(5, 3))
        A = np.full((3, 3), -np.inf)
        np.fill_diagonal(A, 0.0)
        path, _ = crf.viterbi(P, A)
        assert len(set(path)) == 1
        assert path[0] == int(P.sum(axis=0).argmax())

    def test_tie_break_smallest_label_at_latest_position(self):
        # co-optimal paths (0,1) and (1,0); the latest differing position is
        # the last one, so the winner carries label 0 there
        P = np.zeros((2, 2))
        A = np.array([[-1.0, 0.0], [0.0, -1.0]])
        path, score = crf.viterbi(P, A)
        assert path == [1, 0] and score == 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            P, A = random_instance(rng)
            n, L = P.shape
            path, score = crf.viterbi(P, A)
            best = max(
                itertools.product(range(L), repeat=n),
                key=lambda y: crf.seq_score(P, A, list(y)),
            )
            assert score == crf.seq_score(P, A, list(best))
            assert score == crf.seq_score(P, A, path)

    def test_score_below_log_partition(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            P, A = random_instance(rng)
            _, score = crf.viterbi(P, A)
            assert score <= crf.log_partition(P, A) + 1e-12


def chain_draws(seed, count):
    """(P, A, gold) with 1-40 tokens and 1-45 labels; every third draw is integer-valued,
    so paths tie and scores hold zeros of both signs."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, L = int(rng.integers(1, 41)), int(rng.integers(1, 46))
        if k % 3 == 2:
            sign = float(rng.choice([-1.0, 1.0]))  # -1.0 * 0 is -0.0
            P, A = sign * rng.integers(-2, 3, size=(n, L)), sign * rng.integers(-2, 3, size=(L, L))
        else:
            P, A = 3 * rng.normal(size=(n, L)), rng.normal(size=(L, L))
        yield P, A, [int(g) for g in rng.integers(0, L, size=n)]


# The loops that `_forward` and `best_into` replaced, kept verbatim as references.
def reference_forward(P, A):
    n, L = P.shape
    alpha = np.empty((n, L))
    alpha[0] = P[0]
    for t in range(1, n):
        scores = alpha[t - 1][:, None] + A
        m = scores.max(axis=0)
        alpha[t] = m + np.log(np.exp(scores - m[None, :]).sum(axis=0)) + P[t]
    return alpha


def reference_forward_backward(P, A):
    n, L = P.shape
    alpha = reference_forward(P, A)
    beta = np.zeros((n, L))
    for t in range(n - 2, -1, -1):
        scores = A + (P[t + 1] + beta[t + 1])[None, :]
        m = scores.max(axis=1)
        beta[t] = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
    return alpha, beta, crf._logsumexp(alpha[n - 1])


def reference_nll_loss_and_grads(P, A, gold):
    n, L = P.shape
    alpha, beta, log_z = reference_forward_backward(P, A)
    loss = log_z - crf.seq_score(P, A, gold)

    dP = np.exp(alpha + beta - log_z)
    for t, g in enumerate(gold):
        dP[t, g] -= 1.0

    dA = np.zeros((L, L))
    for t in range(n - 1):
        pair = alpha[t][:, None] + A + (P[t + 1] + beta[t + 1])[None, :] - log_z
        dA += np.exp(pair)
        dA[gold[t], gold[t + 1]] -= 1.0
    return float(loss), dP, dA


def reference_viterbi(P, A):
    n, L = P.shape
    delta = P[0].copy()
    back = np.zeros((n, L), dtype=np.intp)
    scores = np.empty((L, L))
    columns = np.arange(L)
    for t in range(1, n):
        np.add(delta[:, None], A, out=scores)
        delta = scores[scores.argmax(axis=0, out=back[t]), columns]
        delta += P[t]
    last = int(delta.argmax())
    score = float(delta[last])
    rows = back.tolist()
    path = [last]
    for t in range(n - 1, 0, -1):
        last = rows[t][last]
        path.append(last)
    path.reverse()
    return path, score


class TestOneLoopEachWay:
    """The backward table is the forward loop on the reversed sentence: the same bytes as the
    right-to-left loop it replaced. Ties, zeros of both signs and 8 or more labels (where a
    row-major copy of the reversed scores sums in another order) all occur."""

    def test_loss_gradients_and_partition_keep_their_bytes(self):
        for P, A, gold in chain_draws(11, 2100):
            loss, dP, dA = crf.nll_loss_and_grads(P, A, gold)
            want_loss, want_dP, want_dA = reference_nll_loss_and_grads(P, A, gold)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert dP.tobytes() == want_dP.tobytes() and dA.tobytes() == want_dA.tobytes()
            beta = crf._forward(P[::-1], A.T)[::-1]
            assert beta.tobytes() == reference_forward_backward(P, A)[1].tobytes()
            want_log_z = crf._logsumexp(reference_forward(P, A)[-1])
            assert np.float64(crf.log_partition(P, A)).tobytes() == np.float64(want_log_z).tobytes()

    def test_viterbi_keeps_its_bytes(self):
        zeros = [(-np.zeros((n, 2)), -np.zeros((2, 2)), None) for n in (1, 3)]  # scores -0.0
        for P, A, _ in [*chain_draws(12, 2100), *zeros]:
            path, score = crf.viterbi(P, A)
            want_path, want_score = reference_viterbi(P, A)
            assert path == want_path
            assert np.float64(score).tobytes() == np.float64(want_score).tobytes()


# `best_into` as it was when it laid each step's scores out as (i, j), verbatim: the reference
# for TestBestIntoLayout.
def reference_best_into(P, A):
    n, L = P.shape
    into = np.full((n, L), -0.0)
    back = np.zeros((n, L), dtype=np.intp)
    prev = np.empty(L)
    scores = np.empty_like(A)  # A's layout, so that A.T's columns lie along memory
    columns = np.arange(L)
    for t in range(1, n):
        np.add(into[t - 1], P[t - 1], out=prev)
        np.add(prev[:, None], A, out=scores)
        into[t] = scores[scores.argmax(axis=0, out=back[t]), columns]
    return into, back


def last_of_ties_best_into(P, A):
    """The reference with each argmax taken over the labels in reverse: ties go to the last."""
    n, L = P.shape
    into = np.full((n, L), -0.0)
    back = np.zeros((n, L), dtype=np.intp)
    for t in range(1, n):
        scores = (into[t - 1] + P[t - 1])[:, None] + A
        back[t] = L - 1 - scores[::-1].argmax(axis=0)
        into[t] = scores[back[t], np.arange(L)]
    return into, back


class TestBestIntoLayout:
    """The (j, i) layout of the max loop keeps the bytes of into and back: on `chain_draws`
    with -inf in none, 30% or 70% of the transitions, run forward and as the suffix pass runs
    it, on (P[::-1], A.T); one token and one label included."""

    @staticmethod
    def mismatches(best_into):
        rng = np.random.default_rng(15)
        edges = [(rng.normal(size=(1, 7)), rng.normal(size=(7, 7))),
                 (rng.normal(size=(9, 1)), rng.normal(size=(1, 1))),
                 (-np.zeros((1, 1)), np.zeros((1, 1)))]
        draws = [(P, A) for P, A, _ in chain_draws(16, 2100)] + edges
        count, masks = 0, set()
        for P, A in draws:
            share = float(rng.choice([0.0, 0.3, 0.7]))
            masks.add(share)
            A = np.where(rng.random(size=A.shape) < share, -np.inf, A)
            for args in ((P, A), (P[::-1], A.T)):
                into, back = best_into(*args)
                want_into, want_back = reference_best_into(*args)
                count += into.tobytes() != want_into.tobytes() or back.tobytes() != want_back.tobytes()
        assert masks == {0.0, 0.3, 0.7}
        return count

    def test_same_bytes_as_the_row_major_loop(self):
        assert self.mismatches(crf.best_into) == 0

    def test_taking_the_last_tied_maximum_shows(self):
        assert self.mismatches(last_of_ties_best_into) > 0


def test_gradient_check_seed_picks_instances(monkeypatch):
    """Seed 0 draws what default_rng(1000 + trial) draws; another seed draws anew."""
    seen = []
    real = crf.nll_loss_and_grads

    def record(P, A, gold):
        seen.append(P.copy())
        return real(P, A, gold)

    monkeypatch.setattr(crf, "nll_loss_and_grads", record)

    def first_instance(seed):
        seen.clear()
        assert oracle.check_crf_gradients(trials=1, seed=seed).ok
        return seen[0]

    rng = np.random.default_rng(1000)
    n, L = int(rng.integers(1, 10)), int(rng.integers(1, 7))
    today = rng.normal(size=(n, L))
    assert np.array_equal(first_instance(0), today)
    assert not np.array_equal(first_instance(1), today)
    assert not np.array_equal(first_instance(1), first_instance(2))


class TestOraclesBite:
    """Each exhaustive check reports a fault planted in the code it checks."""

    def test_viterbi_ties_toward_larger_label(self, monkeypatch):
        real = crf.viterbi

        def larger_ties(P, A):  # Viterbi over the labels in reverse order: ties go to the larger
            P, A = np.asarray(P, dtype=float), np.asarray(A, dtype=float)
            path, score = real(P[:, ::-1], A[::-1, ::-1])
            return [P.shape[1] - 1 - label for label in path], score

        monkeypatch.setattr(crf, "viterbi", larger_ties)
        report = oracle.check_viterbi(trials=100, seed=1)
        trials = [int(f.split()[1].rstrip(":")) for f in report.failures]
        assert len(trials) > 10
        assert all(t % 2 for t in trials)  # only the {-1, 0, 1} draws tie

    def test_viterbi_score_one_ulp_off(self, monkeypatch):
        real = crf.viterbi

        def ulp_off(P, A):
            path, score = real(P, A)
            return path, float(np.nextafter(score, np.inf))

        monkeypatch.setattr(crf, "viterbi", ulp_off)
        assert len(oracle.check_viterbi(trials=100, seed=1).failures) == 100

    def test_partition_off_by_one_in_a_million(self, monkeypatch):
        real = crf.log_partition
        monkeypatch.setattr(crf, "log_partition", lambda P, A: real(P, A) * (1 + 1e-6))
        assert len(oracle.check_partition(trials=100, seed=2).failures) >= 90

    def test_crf_gradients_dA_without_its_last_position(self, monkeypatch):
        real = crf.nll_loss_and_grads

        def drops_last(P, A, gold):  # dA leaves out the pair (n-2, n-1)
            loss, dP, dA = real(P, A, gold)
            if len(gold) > 1:
                pair = (crf._forward(P, A) + P)[-2][:, None] + A + P[-1] - crf.log_partition(P, A)
                dA = dA - np.exp(pair)
                dA[gold[-2], gold[-1]] += 1.0
            return loss, dP, dA

        monkeypatch.setattr(crf, "nll_loss_and_grads", drops_last)
        report = oracle.check_crf_gradients(trials=40, seed=1)
        assert len(report.failures) > 25
        assert all("n=1," not in failure for failure in report.failures)
