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
    return _logsumexp(_forward(P, A)[-1])


def _forward(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Forward log-scores: alpha[t, j] = logsumexp_i(alpha[t-1, i] + A[i, j]) + P[t, j]."""
    n, L = P.shape
    alpha = np.empty((n, L))
    alpha[0] = P[0]
    for t in range(1, n):
        scores = alpha[t - 1][:, None] + A
        m = scores.max(axis=0)
        alpha[t] = m + np.log(np.exp(scores - m[None, :]).sum(axis=0)) + P[t]
    return alpha


def _forward_backward(P: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    n, L = P.shape
    alpha = _forward(P, A)
    beta = np.zeros((n, L))
    for t in range(n - 2, -1, -1):
        scores = A + (P[t + 1] + beta[t + 1])[None, :]
        m = scores.max(axis=1)
        beta[t] = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
    return alpha, beta, _logsumexp(alpha[n - 1])


def nll_loss_and_grads(P, A, gold: Sequence[int]):
    """Negative log-likelihood of the gold path with exact gradients.

    Returns (loss, dLoss/dP, dLoss/dA); gradients are marginal expectations
    minus gold indicator counts, from the forward-backward recursions.
    """
    P, A = _as_matrices(P, A)
    n, L = P.shape
    gold = _check_labels(gold, n, L)
    alpha, beta, log_z = _forward_backward(P, A)
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


def viterbi(P, A) -> tuple[list[int], float]:
    """Highest-scoring label path and its score.

    Ties resolve to the smallest label index at the latest differing
    position (argmax takes the first maximum, backpointers included).
    The score is read off the lattice: delta_t = (delta_{t-1} + A) + P_t from
    delta_0 = P_0 is the winning path's left-to-right sum, so it equals
    seq_score on that path bit for bit.
    """
    P, A = _as_matrices(P, A)
    n, L = P.shape
    delta = P[0].copy()
    back = np.zeros((n, L), dtype=np.intp)
    scores = np.empty((L, L))
    columns = np.arange(L)
    for t in range(1, n):
        np.add(delta[:, None], A, out=scores)
        # The argmax's own operand: a max reduction may return the other
        # zero of a tie between 0.0 and -0.0.
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
