"""Exact constrained sequence decoding with key-argument co-occurrence.

The decoder maximizes the same objective as Viterbi but over the feasible
set defined by four constraints:

  C1  one label per token (implicit: we search label sequences directly),
  C2  adjacent choices chain consistently (implicit for sequences),
  C3  an I-role label must follow B-role or I-role of the same role,
  C4  per event type, either every key role of the type has a B- tag in
      the sequence or none of them does.

C1-C3 are enforced by construction of the transition lattice; C4 is
resolved by branch-and-bound with an admissible bound from the
unconstrained suffix Viterbi scores. The same best-first pass yields
near-optimal solutions in order: a finished path is released once no open
node can still reach its score, so one search returns the k best
sequences within a score gap of the optimum.

The search starts from a feasible incumbent, read off the suffix pass:
the unconstrained best path with the roles of partly begun groups set to
O. Its score floors the search from the first expansion, which skips
only nodes the search would never expand.

One lattice is built per label set and transition matrix and kept on the
label set: the start labels, each label's allowed successors, the role
bits, the transitions masked to the lattice and the transitions as Python
floats. A search reads its scores as Python floats and expands each node
over the allowed successors only; a memo on the lattice of the roles still
missing per begun set prunes paths that can no longer complete a group.

A search pushes at most NODE_BUDGET x n x L nodes and never more than
NODE_CAP, about 300 MB of nodes whatever the sentence's length. Past that
it returns the best paths it has finished, or the incumbent, and says that
they are not proven optimal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import crf
from .core import OUTSIDE, LabelSequence, LabelSet, orphan_insides

# Slack for float comparisons between a node's bound, whose suffix part is
# summed right to left, and the left-to-right scores of the paths below it.
_EPS = 1e-9

_BRUTE_FORCE_LIMIT = 10**7

# Decode settings: the k-best list keeps sequences within LAMBDA_FACTOR x
# sentence length of the optimum, at most MAX_SOLUTIONS of them.
LAMBDA_FACTOR = 0.5
MAX_SOLUTIONS = 10
# Nodes one search may push, per token and label and at most NODE_CAP in all, before it
# returns what it has.
NODE_BUDGET = 200
NODE_CAP = 10**6


def check_decode_settings(lambda_factor: float, max_solutions: int) -> None:
    """Refuse a k-best threshold or list size that the search cannot use."""
    if not (np.isfinite(lambda_factor) and lambda_factor >= 0):
        raise ValueError("lambda_factor must be non-negative and finite")
    if isinstance(max_solutions, bool) or not isinstance(max_solutions, (int, np.integer)):
        raise ValueError(f"max_solutions must be an integer, got {type(max_solutions).__name__}")
    if max_solutions < 1:
        raise ValueError("max_solutions must be at least 1")


@dataclass
class DecodeProblem:
    """Inputs to constrained decoding over one sentence."""

    emissions: np.ndarray
    transitions: np.ndarray
    labels: LabelSet
    lambda_factor: float = LAMBDA_FACTOR
    max_solutions: int = MAX_SOLUTIONS

    def __post_init__(self) -> None:
        self.emissions = np.asarray(self.emissions, dtype=np.float64)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        n_labels = len(self.labels)
        if self.emissions.ndim != 2 or self.emissions.shape[1] != n_labels:
            raise ValueError(
                f"emissions shape {self.emissions.shape} does not match "
                f"{n_labels} labels"
            )
        if self.emissions.shape[0] == 0:
            raise ValueError("emissions need at least one token")
        if self.transitions.shape != (n_labels, n_labels):
            raise ValueError(
                f"transitions shape {self.transitions.shape} does not match "
                f"{n_labels} labels"
            )
        # A NaN score defeats every bound and prune, so the search would
        # expand the whole lattice.
        if not (np.isfinite(self.emissions).all() and np.isfinite(self.transitions).all()):
            raise ValueError("emissions and transitions must be finite")
        check_decode_settings(self.lambda_factor, self.max_solutions)

    @property
    def n(self) -> int:
        return self.emissions.shape[0]


@dataclass
class MultiDecodeResult:
    """truncated says that a further sequence within the gap was cut; exact is false when the
    search ran out of its node budget, so the sequences are not proven the best."""

    sequences: list[LabelSequence]
    truncated: bool = False
    exact: bool = True


def transition_lattice(labels: LabelSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """(start_ok, allowed, label_bits, group_masks): the C3 masks, each label's began-role bit
    (B- tags only; roles numbered by position in labels.roles) and each group's role bitmask."""
    L = len(labels)
    role_bit = {role: 1 << i for i, role in enumerate(labels.roles)}
    start_ok = np.ones(L, dtype=bool)
    allowed = np.ones((L, L), dtype=bool)
    label_bits = np.zeros(L, dtype=np.int64)
    for j, tag in enumerate(labels.labels):
        if tag.startswith("I-"):
            role = tag[2:]
            start_ok[j] = False
            for i, prev in enumerate(labels.labels):
                allowed[i, j] = prev in (f"B-{role}", f"I-{role}")
        elif tag.startswith("B-"):
            label_bits[j] = role_bit[tag[2:]]
    group_masks = [sum(role_bit[role] for role in group) for _, group in sorted(labels.groups.items())]
    return start_ok, allowed, label_bits, group_masks


def check_constraints(tags, labels: LabelSet) -> list[str]:
    """Independent C1-C4 checker over a finished tag sequence.

    Deliberately a direct scan of the tags, sharing nothing with the
    decoder's lattice construction. Empty result means feasible.
    """
    tags = [t for t in tags]
    violations: list[str] = []
    for i, tag in enumerate(tags):
        if tag not in labels:
            violations.append(f"C1: unknown tag {tag!r} at position {i}")
    if violations:
        return violations
    for i in orphan_insides(tags):
        violations.append(f"C3: {tags[i]} at position {i} has no live {tags[i][2:]} span")
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


@dataclass(frozen=True)
class _Lattice:
    """One model's lattice for `_search`: a label set under one transition matrix.

    key is the matrix's bytes. starts lists, ascending, the labels a path
    may begin with, and succ[l] the labels allowed right after label l;
    label_bits[l] is the role bit a B- tag begins (0 otherwise), and
    group_masks holds one role bitmask per event type. allowed_A is the
    matrix with -inf off the lattice (read-only), and A the matrix as
    Python floats. need memoizes `_need` per begun-role bitmask, filled on
    first use.
    """

    key: bytes
    starts: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    label_bits: tuple[int, ...]
    group_masks: tuple[int, ...]
    allowed_A: np.ndarray
    A: tuple[tuple[float, ...], ...]
    need: dict[int, int] = field(default_factory=dict, compare=False)


def _lattice(prob: DecodeProblem) -> _Lattice:
    """prob's lattice, kept in one slot on its label set.

    Keyed by the transitions' bytes: a model decodes every sentence with one
    matrix, and a different or in-place-edited matrix is built again rather
    than served stale. A LabelSet is never changed after construction. Built
    from the tags directly rather than from transition_lattice, which the
    brute-force oracle keeps using, so the oracle checks this lattice too.
    """
    labels, transitions = prob.labels, prob.transitions
    key = transitions.tobytes()
    lattice = vars(labels).get("_lattice")
    if lattice is not None and lattice.key == key:
        return lattice
    tags = labels.labels
    roles = [LabelSet.role_of(tag) for tag in tags]
    inside = [tag.startswith("I-") for tag in tags]
    # I-r may follow only B-r or I-r (both carry role r); anything else may
    # follow any label.
    succ = tuple(
        tuple(j for j in range(len(tags)) if not inside[j] or roles[j] == roles[i])
        for i in range(len(tags))
    )
    allowed_A = np.full_like(transitions, -np.inf)
    for i, row in enumerate(succ):
        allowed_A[i, list(row)] = transitions[i, list(row)]
    allowed_A.flags.writeable = False
    role_bit = {role: 1 << i for i, role in enumerate(labels.roles)}
    lattice = _Lattice(
        key=key,
        starts=tuple(j for j, x in enumerate(inside) if not x),
        succ=succ,
        label_bits=tuple(
            role_bit[role] if tag.startswith("B-") else 0 for tag, role in zip(tags, roles)
        ),
        group_masks=tuple(
            sum(role_bit[role] for role in group) for _, group in sorted(labels.groups.items())
        ),
        allowed_A=allowed_A,
        A=tuple(map(tuple, transitions.tolist())),
    )
    vars(labels)["_lattice"] = lattice
    return lattice


def _need(begun: int, group_masks: tuple[int, ...]) -> int:
    """Most key roles still missing from any partly begun group.

    Each missing role needs its own later position for its B- tag.
    """
    most = 0
    for mask in group_masks:
        part = begun & mask
        if part and part != mask:
            most = max(most, (mask & ~part).bit_count())
    return most


def _incumbent(
    labels: LabelSet,
    P: list[list[float]],
    lattice: _Lattice,
    S: list[list[float]],
    nxt: np.ndarray,
) -> tuple[list[int], float]:
    """A feasible path and its score, from emissions P, the lattice and `_search`'s S and nxt.

    The unconstrained best path, with every tag of each role in a partly
    begun group set to O until no group is partly begun: groups may share a
    role, so clearing one group can leave another partly begun. The score
    is summed left to right, as `_search` sums a path.
    """
    path = [max(lattice.starts, key=lambda l: P[0][l] + S[0][l])]
    for t in range(len(P) - 1):
        path.append(int(nxt[t, path[-1]]))
    while True:
        begun = 0
        for l in path:
            begun |= lattice.label_bits[l]
        partial = 0
        for mask in lattice.group_masks:
            if begun & mask not in (0, mask):
                partial |= mask
        if not partial:
            break
        cleared = {role for i, role in enumerate(labels.roles) if partial >> i & 1}
        outside = labels.index(OUTSIDE)
        path = [outside if LabelSet.role_of(labels.labels[l]) in cleared else l for l in path]
    A, g = lattice.A, P[0][path[0]]
    for t in range(1, len(P)):
        g = g + A[path[t - 1]][path[t]] + P[t][path[t]]
    return path, g


def _search(prob: DecodeProblem, gap: float, k: int) -> tuple[list[tuple[list[int], float]], bool]:
    """Best-first branch-and-bound over token positions.

    Returns up to k feasible (path, score) pairs within `gap` of the
    optimum, by descending score, and True. Ties resolve like Viterbi:
    smallest label index at the latest differing position.

    Past its node budget (NODE_BUDGET, NODE_CAP), it returns the pairs it
    released, then the finished paths still waiting, best first and within
    `gap` of the first; with none, the incumbent. Then the flag is False.

    The search prunes from its first expansion against a feasible incumbent
    of score g0 <= g*: until the optimum completes, best-first order never
    expands a node below g* - gap - _EPS, and afterwards it prunes every such
    node, so the floor skips only nodes that would never be expanded.
    """
    n = prob.n
    lattice = _lattice(prob)
    succ, label_bits, group_masks, A = lattice.succ, lattice.label_bits, lattice.group_masks, lattice.A
    # The suffix pass, C4 ignored, is Viterbi's loop on the reversed sentence and lattice:
    # S[t][l], the best score over t+1..n-1 given l at t, is an admissible bound, and
    # nxt[t][l] is the next label it takes.
    into, back = crf.best_into(prob.emissions[::-1], lattice.allowed_A.T)
    # The search reads Python floats: the same sums as on numpy scalars,
    # bit for bit, at a fraction of the cost per node.
    P, S, nxt = prob.emissions.tolist(), into[::-1].tolist(), back[::-1]
    path0, g0 = _incumbent(prob.labels, P, lattice, S, nxt)
    need = lattice.need
    budget = min(NODE_BUDGET * n * len(succ), NODE_CAP)

    # Open nodes are (-f, node id, position, label, g, begun-role bitmask);
    # nodes[id] = (label, parent id) rebuilds the path. g is the prefix score
    # summed left to right, emission then transition, like crf.seq_score.
    nodes: list[tuple[int, int]] = []
    heap: list[tuple[float, int, int, int, float, int]] = []
    floor = g0 - gap - _EPS  # nodes below this cannot come within gap of the best path
    for l in lattice.starts:
        g = P[0][l]
        f = g + S[0][l]
        begun = label_bits[l]
        if f < floor or _need(begun, group_masks) > n - 1:
            continue
        nodes.append((l, -1))
        heapq.heappush(heap, (-f, len(nodes) - 1, 0, l, g, begun))

    # Finished paths wait as (-score, reversed path) until no open node can
    # still reach their score; then the smallest entry is the next result.
    done: list[tuple[float, tuple[int, ...]]] = []
    results: list[tuple[list[int], float]] = []
    while len(results) < k:
        if done and (not heap or -heap[0][0] < -done[0][0] - _EPS):
            neg_score, reversed_path = heapq.heappop(done)
            score = -neg_score
            if results and results[0][1] - score > gap:
                break
            results.append((list(reversed(reversed_path)), score))
            continue
        if not heap:
            break
        neg_f, nid, t, l, g, begun = heapq.heappop(heap)
        if -neg_f < floor:
            heap.clear()  # neither can any other open node
            continue
        if t == n - 1:
            floor = max(floor, g - gap - _EPS)
            reversed_path = []
            while nid != -1:
                label, nid = nodes[nid]
                reversed_path.append(label)
            heapq.heappush(done, (-g, tuple(reversed_path)))
            continue
        if len(nodes) > budget:
            found = results + [(list(reversed(p)), -neg) for neg, p in sorted(done)]
            found = [(p, s) for p, s in found if found[0][1] - s <= gap]
            return found[:k] or [(path0, g0)], False
        t += 1
        remaining = n - t - 1  # positions strictly after the child's
        A_l, P_t, S_t = A[l], P[t], S[t]
        for nl in succ[l]:
            ng = g + A_l[nl] + P_t[nl]
            nf = ng + S_t[nl]
            if nf < floor:
                continue
            nbegun = begun | label_bits[nl]
            missing = need.get(nbegun)
            if missing is None:
                missing = need[nbegun] = _need(nbegun, group_masks)
            if missing > remaining:
                continue
            nodes.append((nl, nid))
            heapq.heappush(heap, (-nf, len(nodes) - 1, t, nl, ng, nbegun))
    return results, True


def _to_sequence(prob: DecodeProblem, path: list[int], score: float) -> LabelSequence:
    return LabelSequence(tags=tuple(prob.labels.labels[i] for i in path), score=score)


def ilp_decode(prob: DecodeProblem) -> LabelSequence:
    """Optimal feasible label sequence under C1-C4."""
    path, score = _search(prob, 0.0, 1)[0][0]
    return _to_sequence(prob, path, score)


def ilp_decode_multi(prob: DecodeProblem) -> MultiDecodeResult:
    """Enumerate near-optimal feasible sequences for multi-typed events.

    Returns, best first, the feasible sequences whose gap to the best is at
    most lambda_factor * sentence length, keeping at most max_solutions;
    truncated says that a further sequence within the gap was cut, and exact
    is False when the node budget ran out first.
    """
    found, exact = _search(prob, prob.lambda_factor * prob.n, prob.max_solutions + 1)
    return MultiDecodeResult(
        sequences=[_to_sequence(prob, p, s) for p, s in found[: prob.max_solutions]],
        truncated=len(found) > prob.max_solutions,
        exact=exact,
    )


def _all_paths(n: int, L: int) -> np.ndarray:
    """Every path of n labels out of L, one per row, in counting order (last position fastest)."""
    total = L**n
    if total > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large for brute force: {L}^{n} > {_BRUTE_FORCE_LIMIT}")
    powers = L ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (np.arange(total, dtype=np.int64)[:, None] // powers[None, :]) % L


def _path_scores(P: np.ndarray, A: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """Each row's score, left to right, emission then transition, as crf.seq_score sums a path."""
    scores = P[0, seqs[:, 0]]
    for i in range(1, seqs.shape[1]):
        scores = scores + A[seqs[:, i - 1], seqs[:, i]] + P[i, seqs[:, i]]
    return scores


def _ranked(seqs: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Row order by descending score, ties to the smallest label at the latest differing position.

    Viterbi and the branch-and-bound break ties so.
    """
    return np.lexsort((*seqs.T, -scores))


def _feasible_ranked(prob: DecodeProblem) -> tuple[np.ndarray, np.ndarray]:
    """Every path of prob that meets C1-C4, one per row, and their scores, in `_ranked`'s order."""
    seqs = _all_paths(*prob.emissions.shape)
    start_ok, allowed, label_bits, group_masks = transition_lattice(prob.labels)
    ok = start_ok[seqs[:, 0]].copy()
    bits = label_bits[seqs[:, 0]]
    for i in range(1, prob.n):
        ok &= allowed[seqs[:, i - 1], seqs[:, i]]
        bits |= label_bits[seqs[:, i]]
    for mask in group_masks:
        part = bits & mask
        ok &= (part == 0) | (part == mask)
    seqs = seqs[ok]  # only feasible paths are scored
    scores = _path_scores(prob.emissions, prob.transitions, seqs)
    order = _ranked(seqs, scores)
    return seqs[order], scores[order]


def brute_force_decode(prob: DecodeProblem, ranking: bool = False):
    """Exhaustive feasible-set oracle.

    Returns the best feasible LabelSequence, or with ranking=True the full
    feasible list sorted by descending score, ties in `_ranked`'s order.
    """
    seqs, scores = _feasible_ranked(prob)
    cut = None if ranking else 1
    tags = np.array(prob.labels.labels, dtype=object)[seqs[:cut]].tolist()
    ranked = [LabelSequence(tuple(t), s) for t, s in zip(tags, scores[:cut].tolist())]
    return ranked if ranking else ranked[0]
