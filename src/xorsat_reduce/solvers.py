"""Classical decision, counting, and backtracking solvers over the reduced space.

All solvers work on the affine space produced by `reduce_instance`; the
backtracking pair additionally exploits the standard form, fixing free
variables in index order (branch 0 before 1) and cutting a branch as
soon as any clause is violated under the induced partial assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .bits import index_to_bits
from .instances import Instance
from .reduction import Reduction, XorInfeasible, expand, reduce_instance, scan


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    satisfiable: bool
    assignment: np.ndarray | None
    queries: int  # full-assignment evaluations performed


@dataclass(frozen=True)
class TreeStats:
    """Visited-node counts of a backtracking decision tree."""

    total_nodes: int
    nodes_per_depth: tuple[int, ...]


def _reduction_for(instance: Instance, reduction):
    if reduction is None:
        reduction = reduce_instance(instance)
    return reduction


def solve_enumerate(instance: Instance, reduction=None) -> SolveOutcome:
    """Check reduced-space candidates in lexicographic parameter order.

    Returns the first satisfying assignment, or Unsat after all 2^k
    candidates fail (queries reports how many were evaluated).
    """
    reduction = _reduction_for(instance, reduction)
    if isinstance(reduction, XorInfeasible):
        return SolveOutcome(False, None, 0)
    for start, satisfied in scan(instance, reduction):
        hits = np.flatnonzero(satisfied)
        if hits.size:
            first = start + int(hits[0])
            return SolveOutcome(True, expand(reduction, index_to_bits(first, reduction.free_count)), first + 1)
    return SolveOutcome(False, None, 1 << reduction.free_count)


def count_enumerate(instance: Instance, reduction=None) -> int:
    """Exact solution count by checking every reduced-space candidate."""
    reduction = _reduction_for(instance, reduction)
    if isinstance(reduction, XorInfeasible):
        return 0
    return sum(int(satisfied.sum()) for _, satisfied in scan(instance, reduction))


class _BacktrackRun:
    """One depth-first walk of the standard-form decision tree, on an explicit stack.

    A dependent coordinate becomes determinate once every free variable
    in its row of the dependency map is fixed; a node is pruned when a
    clause containing a newly determined variable is violated, i.e. has
    more than q true literals or fewer than q true-or-open ones.

    Each clause a keeps two counters in one flat list: slack[2a] = q - true
    (literals that may still turn true) and slack[2a + 1] = true + open - q
    (literals that may still turn false). Fixing a literal true lowers the
    first, fixing it false lowers the second, and the clause is violated
    once either is negative. A clause with q > p can never be met, so both
    of its counters start at 0 and any fixed literal cuts the branch.
    """

    def __init__(self, instance: Instance, reduction: Reduction, find_first: bool):
        self.find_first = find_first
        sf = reduction.standard
        self.k = k = sf.free_count
        perm = [int(v) for v in sf.perm]
        self.n = len(perm)
        self.slack: list[int] = []
        # lowered[var][value]: the counters that fixing var to value lowers
        self.lowered: list[tuple[list[int], list[int]]] = [([], []) for _ in perm]
        for a, c in enumerate(instance.clauses):
            self.slack += [c.q, c.p - c.q] if c.q <= c.p else [0, 0]
            for lit in c.literals:
                self.lowered[lit.var][1 - lit.negated].append(2 * a)
                self.lowered[lit.var][lit.negated].append(2 * a + 1)
        # steps[d]: the (var, offset, support mask) determined at depth d; the
        # value is offset XOR the parity of the fixed parameter bits in the mask
        self.steps: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
        for d in range(k):
            self.steps[d + 1].append((perm[d], 0, 1 << d))
        for j, row in enumerate(sf.h):
            support = [int(c) for c in np.flatnonzero(row)]
            mask = sum(1 << c for c in support)
            ready = support[-1] + 1 if support else 0
            self.steps[ready].append((perm[k + j], int(sf.dependent_offset[j]), mask))
        self.nodes_per_depth = [0] * (k + 1)
        self.solution_count = 0
        self.first_solution: np.ndarray | None = None

    def run(self) -> TreeStats:
        k, steps, slack, lowered = self.k, self.steps, self.slack, self.lowered
        nodes = self.nodes_per_depth
        values = [0] * self.n
        applied: list[list[list[int]]] = [[] for _ in range(k + 1)]  # undo log per depth
        depth = 0
        bits = 0  # bit d is the branch taken at depth d, for d < depth
        while depth >= 0:
            nodes[depth] += 1
            log = applied[depth]
            ok = True
            for var, offset, mask in steps[depth]:
                value = offset ^ ((bits & mask).bit_count() & 1)
                values[var] = value
                lowers = lowered[var][value]
                log.append(lowers)
                for i in lowers:
                    s = slack[i] - 1
                    slack[i] = s
                    if s < 0:
                        ok = False
                if not ok:
                    break
            if ok:
                if depth < k:
                    bits &= ~(1 << depth)
                    depth += 1
                    continue
                self.solution_count += 1
                if self.first_solution is None:
                    self.first_solution = np.array(values, dtype=np.uint8)
                if self.find_first:
                    break
            # Leave nodes until one has an untried 1-branch sibling.
            while depth >= 0:
                log = applied[depth]
                for lowers in log:
                    for i in lowers:
                        slack[i] += 1
                log.clear()
                depth -= 1
                if depth >= 0 and not bits >> depth & 1:
                    bits |= 1 << depth
                    depth += 1
                    break
        return TreeStats(sum(nodes), tuple(nodes))


def backtrack_solve(instance: Instance, reduction) -> tuple[SolveOutcome, TreeStats]:
    """Depth-first search for one solution; returns the outcome and tree size.

    Queries counts the full assignments reached (depth-k nodes). For an
    XorInfeasible input no tree is built and T = 0.
    """
    if isinstance(reduction, XorInfeasible):
        return SolveOutcome(False, None, 0), TreeStats(0, ())
    run = _BacktrackRun(instance, reduction, find_first=True)
    stats = run.run()
    leaves = stats.nodes_per_depth[run.k]
    if run.first_solution is not None:
        return SolveOutcome(True, run.first_solution, leaves), stats
    return SolveOutcome(False, None, leaves), stats


def backtrack_count(instance: Instance, reduction) -> tuple[int, TreeStats]:
    """Exhaustive decision-tree walk; the tree size here is the T used for gamma."""
    if isinstance(reduction, XorInfeasible):
        return 0, TreeStats(0, ())
    run = _BacktrackRun(instance, reduction, find_first=False)
    stats = run.run()
    return run.solution_count, stats


def permutation_score(instance: Instance, reduction: Reduction) -> int:
    """Number of clauses containing at least one free-block variable."""
    free_vars = set(int(v) for v in reduction.standard.perm[: reduction.free_count])
    return sum(
        1 for c in instance.clauses if any(lit.var in free_vars for lit in c.literals)
    )


def optimize_permutation(
    instance: Instance,
    reduction: Reduction,
    trials: int = 100,
    seed: int | np.random.Generator = 0,
) -> Reduction:
    """Optimize the variable permutation for backtracking.

    Primary objective: the number of clauses containing at least one
    free-block variable, raised by `trials` greedy swap climbs (the
    first from the input's block, the rest from random full-rank
    blocks). Among the best-scoring blocks found, ties are broken toward
    standard forms whose dependent rows complete early, and the free
    block is ordered the same way, since early-determined coordinates
    are what lets the backtracker cut branches. The returned reduction
    never scores below the input and spans the same solution set;
    deterministic per seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k, n = reduction.kernel.shape
    if k == 0 or k == n:
        return reduction
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    incidence = np.zeros((instance.m, n), dtype=np.int64)
    for a, c in enumerate(instance.clauses):
        for lit in c.literals:
            incidence[a, lit.var] = 1

    input_sel = [int(v) for v in reduction.standard.perm[:k]]
    candidates = {tuple(sorted(input_sel)): _selection_score(incidence, input_sel)}
    for trial in range(trials):
        sel = list(input_sel) if trial == 0 else _random_selection(reduction.kernel, rng)
        sel, score = _climb(reduction, incidence, sel)
        candidates.setdefault(tuple(sorted(sel)), score)
    best_score = max(candidates.values())
    finalists = sorted(sel for sel, score in candidates.items() if score == best_score)
    scored = []
    for sel in finalists:
        sf = gf2.standard_form(reduction.kernel, reduction.offset, selection=sel)
        scored.append((_readiness_penalty(sf), sel))
    _, chosen = min(scored)
    order = _readiness_order(reduction.kernel, reduction.offset, chosen)
    if order == input_sel:
        return reduction
    return reduction.with_standard(
        gf2.standard_form(reduction.kernel, reduction.offset, selection=order)
    )


def _readiness_penalty(sf: gf2.StandardForm) -> int:
    """Sum over dependent rows of the depth at which each becomes determined."""
    total = 0
    for row in sf.h:
        hits = np.nonzero(row)[0]
        total += int(hits.max()) + 1 if hits.size else 0
    return total


def _readiness_order(kernel, offset, selection) -> list[int]:
    """Order the free block so dependency rows complete as early as possible.

    Greedy: repeatedly append the variable that completes the most
    still-open dependent rows, then the one leaving the least remaining
    support, then the smallest index (deterministic).
    """
    sf = gf2.standard_form(kernel, offset, selection=selection)
    variables = list(selection)
    supports = [
        {variables[c] for c in np.nonzero(row)[0]} for row in sf.h if np.any(row)
    ]
    chosen: list[int] = []
    remaining = set(variables)
    while remaining:
        best = None
        best_key = None
        placed = set(chosen)
        for v in sorted(remaining):
            trial = placed | {v}
            completed = sum(1 for s in supports if v in s and s <= trial)
            leftover = sum(len(s - trial) for s in supports if not s <= placed)
            key = (-completed, leftover, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        chosen.append(best)
        remaining.discard(best)
    return chosen


def _selection_score(incidence, sel) -> int:
    return int((incidence[:, sel].sum(axis=1) > 0).sum())


def _random_selection(kernel, rng) -> list[int]:
    """A uniform-ish random set of k columns on which the kernel has full rank."""
    order = rng.permutation(kernel.shape[1])
    _, pivots = gf2.row_reduce(kernel[:, order])
    return [int(order[c]) for c in pivots]


def _climb(reduction, incidence, sel):
    """Best-improvement swaps until no valid swap raises the score."""
    while True:
        sf = gf2.standard_form(reduction.kernel, reduction.offset, selection=sel)
        k = sf.free_count
        free = [int(v) for v in sf.perm[:k]]
        dependent = [int(v) for v in sf.perm[k:]]
        score = _selection_score(incidence, free)
        if not dependent:
            return free, score
        counts = incidence[:, free].sum(axis=1)
        # counts[a] - in(a, out_var) + in(a, in_var), for every swap pair
        swapped = (
            counts[:, None, None]
            - incidence[:, free][:, :, None]
            + incidence[:, dependent][:, None, :]
        )
        scores = (swapped > 0).sum(axis=0)
        valid = sf.h.T.astype(bool)  # (k, n-k): swap keeps the block full-rank
        scores = np.where(valid, scores, -1)
        best = int(scores.max())
        if best <= score:
            return free, score
        c, j = np.unravel_index(int(scores.argmax()), scores.shape)
        sel = [v for v in free if v != free[c]] + [dependent[j]]


def gamma_estimate(tree_sizes, n: int) -> float:
    """Scaled tree-size exponent (1/n) * log2(mean(sqrt(T)))."""
    sizes = np.asarray(tree_sizes, dtype=np.float64)
    if sizes.size == 0:
        raise ValueError("tree_sizes must be nonempty")
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(math.log2(np.sqrt(sizes).mean()) / n)
