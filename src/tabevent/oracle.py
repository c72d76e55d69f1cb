"""Randomized brute-force verification suites.

Each check pits a production code path against an independent oracle:
exhaustive enumeration for decoding and the partition function, central
finite differences for gradients. The CLI `oracle` subcommand and the
acceptance tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import crf, ilp, neural
from .core import LabelSet


@dataclass
class OracleReport:
    name: str
    trials: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.failures)} mismatches)"
        return f"{self.name}: {self.trials} trials, {status}"


def random_label_set(rng: np.random.Generator, max_labels: int = 5, n_groups: int = 2) -> LabelSet:
    """Random BIO label set with key-argument groups, at most max_labels tags."""
    max_roles = max(1, (max_labels - 1) // 2)
    n_roles = int(rng.integers(1, max_roles + 1))
    roles = [f"r{i}" for i in range(n_roles)]
    groups = {}
    for g in range(int(rng.integers(1, n_groups + 1))):
        size = int(rng.integers(1, n_roles + 1))
        chosen = rng.choice(n_roles, size=size, replace=False)
        groups[f"t{g}"] = {roles[int(i)] for i in chosen}
    return LabelSet(roles, groups)


def random_problem(
    rng: np.random.Generator,
    max_len: int = 6,
    max_labels: int = 5,
    n_groups: int = 2,
) -> ilp.DecodeProblem:
    labels = random_label_set(rng, max_labels=max_labels, n_groups=n_groups)
    n = int(rng.integers(1, max_len + 1))
    P = rng.normal(size=(n, len(labels)))
    A = rng.normal(size=(len(labels), len(labels)))
    return ilp.DecodeProblem(P, A, labels)


def check_ilp(trials: int = 500, seed: int = 0) -> OracleReport:
    """ilp_decode must match the exhaustive feasible-set argmax exactly."""
    rng = np.random.default_rng(seed)
    report = OracleReport("ilp-vs-brute-force", trials)
    for trial in range(trials):
        prob = random_problem(rng)
        got = ilp.ilp_decode(prob)
        want = ilp.brute_force_decode(prob)
        if got.score != want.score or got.tags != want.tags:
            report.failures.append(
                f"trial {trial}: branch-and-bound {got.score} {got.tags} vs "
                f"brute force {want.score} {want.tags}"
            )
    return report


def check_ilp_multi(trials: int = 500, seed: int = 0) -> OracleReport:
    """ilp_decode_multi must match the exhaustive ranking cut at the gap.

    Odd trials draw emissions and transitions from {-1, 0, 1}, so many
    sequences tie and the tie order is checked too.
    """
    rng = np.random.default_rng(seed)
    report = OracleReport("ilp-multi-vs-brute-force", trials)
    for trial in range(trials):
        prob = random_problem(rng)
        P, A = prob.emissions, prob.transitions
        if trial % 2:
            P = rng.integers(-1, 2, size=P.shape)
            A = rng.integers(-1, 2, size=A.shape)
        prob = ilp.DecodeProblem(
            P,
            A,
            prob.labels,
            lambda_factor=float(rng.choice([0.0, 0.5, 2.0])),
            max_solutions=int(rng.integers(1, 12)),
        )
        got = ilp.ilp_decode_multi(prob)
        seqs, scores = ilp._feasible_ranked(prob)
        within = int(np.count_nonzero(scores[0] - scores <= prob.lambda_factor * prob.n))
        cut = min(within, prob.max_solutions)  # scores descend, so those within the gap lead
        want = [(tuple(prob.labels.labels[i] for i in row), s)
                for row, s in zip(seqs[:cut].tolist(), scores[:cut].tolist())]
        want_truncated = within > prob.max_solutions
        have = [(s.tags, s.score) for s in got.sequences]
        if have != want or got.truncated != want_truncated:
            report.failures.append(
                f"trial {trial}: branch-and-bound {have} truncated={got.truncated} "
                f"vs brute force {want} truncated={want_truncated}"
            )
    return report


def check_viterbi(trials: int = 500, seed: int = 0) -> OracleReport:
    """Unconstrained Viterbi must match exhaustive argmax, ties included.

    Odd trials draw emissions and transitions from {-1, 0, 1}, so many
    paths tie and both the tie-break and the lattice's score are checked.
    """
    rng = np.random.default_rng(seed)
    report = OracleReport("viterbi-vs-enumeration", trials)
    for trial in range(trials):
        n = int(rng.integers(1, 7))
        L = int(rng.integers(1, 6))
        P = rng.normal(size=(n, L))
        A = rng.normal(size=(L, L))
        if trial % 2:
            P = rng.integers(-1, 2, size=P.shape)
            A = rng.integers(-1, 2, size=A.shape)
        path, score = crf.viterbi(P, A)
        seqs = ilp._all_paths(n, L)
        scores = ilp._path_scores(P, A, seqs)  # exact on the integer draws too
        best = ilp._ranked(seqs, scores)[0]
        best_path, best_score = seqs[best].tolist(), float(scores[best])
        if path != best_path or score != best_score:
            report.failures.append(
                f"trial {trial}: viterbi {score} {path} vs enumeration "
                f"{best_score} {best_path}"
            )
    return report


def check_partition(trials: int = 200, seed: int = 0, rel_tol: float = 1e-9) -> OracleReport:
    """Forward-algorithm log partition vs the brute-force log-sum."""
    rng = np.random.default_rng(seed)
    report = OracleReport("partition-vs-enumeration", trials)
    for trial in range(trials):
        n = int(rng.integers(1, 7))
        L = int(rng.integers(1, 5))
        P = rng.normal(size=(n, L))
        A = rng.normal(size=(L, L))
        got = crf.log_partition(P, A)
        scores = ilp._path_scores(P, A, ilp._all_paths(n, L))
        m = scores.max()
        want = float(m + np.log(np.exp(scores - m).sum()))
        rel = abs(got - want) / max(1.0, abs(want))
        if rel > rel_tol:
            report.failures.append(f"trial {trial}: {got} vs {want} (rel {rel:.2e})")
    return report


def _numeric_gradients(
    arrays: Mapping[str, np.ndarray], loss: Callable[[], float], eps: float
) -> dict[str, np.ndarray]:
    """Central finite differences of loss() for every entry of the named arrays.

    Each entry is perturbed in place by +-eps and restored afterwards.
    """
    numeric = {}
    for name, mat in arrays.items():
        grad = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            orig = mat[idx]
            mat[idx] = orig + eps
            hi = loss()
            mat[idx] = orig - eps
            lo = loss()
            mat[idx] = orig
            grad[idx] = (hi - lo) / (2 * eps)
        numeric[name] = grad
    return numeric


def _trial_rng(base: int, trial: int, seed: int) -> np.random.Generator:
    """SeedSequence pads entropy with zero words: seed 0 draws as default_rng(base + trial) does."""
    return np.random.default_rng([base + trial, seed])


def check_crf_gradients(trials: int = 10, seed: int = 0, abs_tol: float = 1e-5) -> OracleReport:
    """NLL gradients for P and A vs central finite differences, on 1 to 9 tokens over 1 to
    6 labels, so a sentence may have no transition or a single one."""
    report = OracleReport("crf-gradients", trials)
    eps = 1e-5
    for trial in range(trials):
        rng = _trial_rng(1000, trial, seed)
        n, L = int(rng.integers(1, 10)), int(rng.integers(1, 7))
        P = rng.normal(size=(n, L))
        A = rng.normal(size=(L, L))
        gold = [int(g) for g in rng.integers(0, L, size=n)]
        _, dP, dA = crf.nll_loss_and_grads(P, A, gold)

        def loss() -> float:
            return crf.nll_loss_and_grads(P, A, gold)[0]

        numeric = _numeric_gradients({"P": P, "A": A}, loss, eps)
        analytic = {"P": dP, "A": dA}
        worst = max(float(np.abs(numeric[k] - analytic[k]).max()) for k in numeric)
        if worst > abs_tol:
            report.failures.append(f"trial {trial} (n={n}, L={L}): max abs error {worst:.3e}")
    return report


def check_blstm_gradients(trials: int = 10, seed: int = 0, rel_tol: float = 1e-3) -> OracleReport:
    """All parameter gradients, `crf.A`'s zero one included, vs central finite differences.

    The loss is sum(P * R) for a fixed random R, which makes dLoss/dP = R
    and exercises backward() in isolation. Sentences have 1 to 9 tokens, so a
    direction may be a single step and an odd length makes the two directions
    meet at the middle token; the hidden size is 1, 3 or 4. Trials 3 and 6 of
    every 8 train with dropout 0.5: each loss evaluation draws its masks from a
    freshly seeded rng, so they are the same masks the analytic gradient used
    and the loss stays a smooth deterministic function of the parameters.
    """
    report = OracleReport("blstm-gradients", trials)
    eps = 1e-4
    for trial in range(trials):
        rng = _trial_rng(2000, trial, seed)
        use_keyargs = trial % 2 == 1
        train = trial % 8 in (3, 6)
        n = int(rng.integers(1, 10))
        vocab = {neural.UNK: 0, "a": 1, "b": 2, "c": 3, "d": 4}
        cfg = neural.ModelConfig(
            vocab=vocab,
            num_labels=3,
            embed_dim=5,
            lstm_hidden=int(rng.choice([1, 3, 4])),
            keyarg_embed_dim=3 if use_keyargs else 0,
            num_keyarg_labels=4 if use_keyargs else 0,
            dropout_rate=0.5 if train else 0.0,
        )
        params = neural.init_params(cfg, rng)
        token_ids = [int(t) for t in rng.integers(0, len(vocab), size=n)]
        keyarg_ids = (
            [int(k) for k in rng.integers(0, 4, size=n)] if use_keyargs else None
        )
        R = rng.normal(size=(n, cfg.num_labels))
        mask_seed = int(rng.integers(2**32))

        def run() -> tuple[np.ndarray, dict]:
            return neural.forward(token_ids, params, cfg, keyarg_ids=keyarg_ids, train=train,
                                  rng=np.random.default_rng(mask_seed))

        _, cache = run()
        grads = params.zeros_like()
        neural.backward(cache, R, grads)

        def loss() -> float:
            return float((run()[0] * R).sum())

        numeric = _numeric_gradients(params, loss, eps)
        worst = 0.0
        for name, num in numeric.items():
            ana = grads[name]
            denom = np.maximum(np.maximum(np.abs(num), np.abs(ana)), 1e-3)
            worst = max(worst, float((np.abs(num - ana) / denom).max()))
        if worst > rel_tol:
            report.failures.append(
                f"trial {trial} (n={n}, H={cfg.lstm_hidden}, train={train}): "
                f"max rel error {worst:.3e}"
            )
    return report


CHECKS = {
    "ilp": check_ilp,
    "ilp-multi": check_ilp_multi,
    "viterbi": check_viterbi,
    "partition": check_partition,
    "crf-gradients": check_crf_gradients,
    "blstm-gradients": check_blstm_gradients,
}


def run_checks(names, trials: int | None = None, seed: int = 0) -> list[OracleReport]:
    """Run the named checks; `trials` None keeps each check's own count."""
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; choose from {sorted(CHECKS)}")
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    extra = {} if trials is None else {"trials": trials}
    return [CHECKS[name](seed=seed, **extra) for name in names]
