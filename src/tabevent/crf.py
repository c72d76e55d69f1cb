"""Linear-chain CRF over emission and transition score matrices.

Scores follow the additive convention: emission for every token plus a
transition for every consecutive label pair, with no boundary transitions.
All dynamic programming runs in log space.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_matrices(P, A) -> tuple[np.ndarray, np.ndarray]:
    P = np.asarray(P, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError(f"emission matrix must be 2-D, got shape {P.shape}")
    if A.shape != (P.shape[1], P.shape[1]):
        raise ValueError(
            f"transition matrix shape {A.shape} does not match {P.shape[1]} labels"
        )
    if P.shape[0] < 1:
        raise ValueError("need at least one token")
    return P, A


def _check_labels(y: Sequence[int], n: int, num_labels: int) -> list[int]:
    y = [int(v) for v in y]
    if len(y) != n:
        raise ValueError(f"label sequence length {len(y)} != {n} tokens")
    for i, v in enumerate(y):
        if v < 0 or v >= num_labels:
            raise ValueError(f"label {v} at position {i} out of range [0, {num_labels})")
    return y


def _logsumexp(v: np.ndarray) -> float:
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def seq_score(P, A, y: Sequence[int]) -> float:
    """Score of one label path: sum of emissions and pairwise transitions.

    Accumulated left to right, emission then transition, so the result is
    bit-identical to the Viterbi recursion's path value.
    """
    P, A = _as_matrices(P, A)
    n = P.shape[0]
    y = _check_labels(y, n, P.shape[1])
    total = float(P[0, y[0]])
    for i in range(1, n):
        total += float(A[y[i - 1], y[i]])
        total += float(P[i, y[i]])
    return total


def log_partition(P, A) -> float:
    """log sum over all label paths of exp(seq_score), by the forward pass."""
    P, A = _as_matrices(P, A)
    return _logsumexp(_forward(P, A)[-1] + P[-1])


def _forward(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Log-sum scores into each position, its emission left out: into[0] = 0 and
    into[t, j] = logsumexp_i(into[t-1, i] + P[t-1, i] + A[i, j]), so alpha is into + P.

    Run on P[::-1] and A.T and reversed, it is the backward table. numpy lays `column + A.T`
    out column-major, so each log-sum sums along memory, as a right-to-left loop does.
    """
    n, L = P.shape
    into = np.zeros((n, L))
    for t in range(1, n):
        scores = (into[t - 1] + P[t - 1])[:, None] + A
        m = scores.max(axis=0)
        into[t] = m + np.log(np.exp(scores - m[None, :]).sum(axis=0))
    return into


def nll_loss_and_grads(P, A, gold: Sequence[int]):
    """Negative log-likelihood of the gold path with exact gradients.

    Returns (loss, dLoss/dP, dLoss/dA); gradients are marginal expectations
    minus gold indicator counts, from the forward-backward recursions.
    """
    P, A = _as_matrices(P, A)
    n, L = P.shape
    gold = _check_labels(gold, n, L)
    alpha = _forward(P, A) + P
    beta = _forward(P[::-1], A.T)[::-1]
    log_z = _logsumexp(alpha[-1])
    loss = log_z - seq_score(P, A, gold)

    dP = np.exp(alpha + beta - log_z)
    for t, g in enumerate(gold):
        dP[t, g] -= 1.0

    dA = np.zeros((L, L))
    for t in range(n - 1):
        pair = alpha[t][:, None] + A + (P[t + 1] + beta[t + 1])[None, :] - log_z
        dA += np.exp(pair)
        dA[gold[t], gold[t + 1]] -= 1.0
    return float(loss), dP, dA


def best_into(P: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best scores into each position, its emission left out, and their back pointers:
    into[t, j] = max_i (into[t-1, i] + P[t-1, i]) + A[i, j] and back[t, j] the first such i.

    into[0] is -0.0, the additive identity, so into[0] + P[0] is P[0] bit for bit. Each step
    lays its scores out as (j, i), from a contiguous copy of A.T, so every argmax runs along
    memory and each maximum is a gather of the flat index it names. The bytes are those of the
    (i, j) layout: each score has the same two operands (addition commutes), argmax takes
    the first maximum along either axis, and the gather reads that same element. It is read
    off the argmax, as a max reduction may return the other zero of a tie.
    Run on P[::-1] and A.T and reversed, into[t, j] is the best score over t+1.. given j at t.
    """
    n, L = P.shape
    into = np.full((n, L), -0.0)
    back = np.zeros((n, L), dtype=np.intp)
    prev = np.empty(L)
    AT = np.ascontiguousarray(A.T)  # no copy when A is the transpose of a C-ordered matrix
    scores = np.empty((L, L))
    flat = scores.reshape(-1)
    rows = L * np.arange(L)  # flat index of each row's first score
    for t in range(1, n):
        np.add(into[t - 1], P[t - 1], out=prev)
        np.add(AT, prev, out=scores)
        into[t] = flat[scores.argmax(axis=1, out=back[t]) + rows]
    return into, back


def viterbi(P, A) -> tuple[list[int], float]:
    """Highest-scoring label path and its score.

    Ties resolve to the smallest label index at the latest differing
    position (argmax takes the first maximum, backpointers included).
    The score is read off the lattice: delta_t = (delta_{t-1} + A) + P_t from
    delta_0 = P_0 is the winning path's left-to-right sum, so it equals
    seq_score on that path bit for bit.
    """
    P, A = _as_matrices(P, A)
    into, back = best_into(P, A)
    delta = into[-1] + P[-1]
    last = int(delta.argmax())
    score = float(delta[last])
    rows = back.tolist()
    path = [last]
    for t in range(len(rows) - 1, 0, -1):
        last = rows[t][last]
        path.append(last)
    path.reverse()
    return path, score
