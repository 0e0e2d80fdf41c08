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
from .instances import Instance
from .reduction import Reduction, XorInfeasible, expand_index, reduce_instance, scan


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


def solve_enumerate(instance: Instance, reduction=None) -> SolveOutcome:
    """Check reduced-space candidates in lexicographic parameter order.

    Returns the first satisfying assignment, or Unsat after all 2^k
    candidates fail (queries reports how many were evaluated).
    """
    if reduction is None:
        reduction = reduce_instance(instance)
    if isinstance(reduction, XorInfeasible):
        return SolveOutcome(False, None, 0)
    for start, satisfied in scan(instance, reduction):
        hits = np.flatnonzero(satisfied)
        if hits.size:
            first = start + int(hits[0])
            return SolveOutcome(True, expand_index(reduction, first), first + 1)
    return SolveOutcome(False, None, 1 << reduction.free_count)


def count_enumerate(instance: Instance, reduction=None) -> int:
    """Exact solution count by checking every reduced-space candidate."""
    if reduction is None:
        reduction = reduce_instance(instance)
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
        self.n = sf.n
        self.slack: list[int] = []
        # lowered[var][value]: the counters that fixing var to value lowers
        self.lowered: list[tuple[list[int], list[int]]] = [([], []) for _ in range(sf.n)]
        for a, c in enumerate(instance.clauses):
            self.slack += [c.q, c.p - c.q] if c.q <= c.p else [0, 0]
            for lit in c.literals:
                self.lowered[lit.var][1 - lit.negated].append(2 * a)
                self.lowered[lit.var][lit.negated].append(2 * a + 1)
        # steps[d]: the (var, offset, support mask) determined at depth d; the
        # value is offset XOR the parity of the fixed parameter bits in the mask.
        # A dependent's mask has bit i where rows[i] holds it, so it is ready
        # once the deepest of those parameters is fixed.
        self.steps: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
        supports = [0] * sf.n
        for d, (var, row) in enumerate(zip(sf.free, sf.rows)):
            self.steps[d + 1].append((var, 0, 1 << d))
            for c in _set_bits(row):
                supports[c] |= 1 << d
        free = set(sf.free)
        for var, mask in enumerate(supports):
            if var not in free:
                self.steps[mask.bit_length()].append((var, sf.point >> var & 1, mask))
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


def _clause_masks(instance: Instance) -> list[int]:
    """masks[v] has bit a set iff variable v occurs in clause a."""
    masks = [0] * instance.n
    for a, c in enumerate(instance.clauses):
        for lit in c.literals:
            masks[lit.var] |= 1 << a
    return masks


def _at_least_degree(masks: list[int]) -> list[int]:
    """at_least[x] has bit v set iff variable v occurs in at least x clauses, up to the top degree."""
    at_least = [0] * (max((m.bit_count() for m in masks), default=0) + 1)
    for v, m in enumerate(masks):
        for x in range(m.bit_count() + 1):
            at_least[x] |= 1 << v
    return at_least


def _coverage(masks: list[int], variables) -> int:
    """Number of clauses containing at least one of `variables`."""
    covered = 0
    for v in variables:
        covered |= masks[v]
    return covered.bit_count()


def _set_bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


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

    Every block is held as the packed kernel rows reduced on it (row i
    has bit sel[i] and no other selected bit), starting from the input's
    standard-form rows, so a swap is one pivot and the returned standard
    form is the chosen rows with the input's point reduced on them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sf = reduction.standard
    k, n = sf.free_count, sf.n
    if k == 0 or k == n:
        return reduction
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    masks = _clause_masks(instance)
    clause_vars = [sum(1 << lit.var for lit in c.literals) for c in instance.clauses]
    at_least_degree = _at_least_degree(masks)
    input_sel = list(sf.free)

    # sorted block -> (score, {selected column: its reduced row})
    candidates = {
        tuple(sorted(input_sel)): (_coverage(masks, input_sel), dict(zip(input_sel, sf.rows)))
    }
    for trial in range(trials):
        rows = list(sf.rows)
        if trial == 0:
            sel = list(input_sel)
        else:
            # A random column order; its pivots are a uniform-ish random full-rank block.
            sel = gf2._gauss_jordan(rows, rng.permutation(n).tolist())
        score = _climb(masks, clause_vars, at_least_degree, sel, rows)
        key = tuple(sorted(sel))
        if key not in candidates:
            candidates[key] = (score, dict(zip(sel, rows)))
    best_score = max(score for score, _ in candidates.values())
    finalists = sorted(key for key, (score, _) in candidates.items() if score == best_score)
    chosen = min(finalists, key=lambda sel: _readiness_penalty(sel, candidates[sel][1]))
    rows = candidates[chosen][1]
    order = _readiness_order(chosen, rows)
    if order == input_sel:
        return reduction
    return reduction.with_standard(
        gf2.reduced_standard_form(order, [rows[v] for v in order], sf.point, n)
    )


def _readiness_penalty(sel, rows) -> int:
    """Sum over dependent coordinates of the depth at which each becomes determined.

    The free block is taken in the order `sel`; rows maps each selected
    column to its reduced row, whose other bits are the dependents it feeds.
    Scanning from the deepest free variable back, each dependent counts
    at the first row that holds it.
    """
    seen = sum(1 << v for v in sel)
    total = 0
    for depth in range(len(sel), 0, -1):
        row = rows[sel[depth - 1]]
        total += depth * (row & ~seen).bit_count()
        seen |= row
    return total


def _readiness_order(sel, rows) -> list[int]:
    """Order the free block so dependency rows complete as early as possible.

    Greedy: repeatedly append the variable that completes the most
    still-open dependent rows, then the one leaving the least remaining
    support, then the smallest index (deterministic). A dependent's
    support is the set of selected variables whose reduced rows hold it,
    kept as a bitmask over variables.
    """
    selected = sum(1 << v for v in sel)
    support_of: dict[int, int] = {}
    for v in sel:
        for d in _set_bits(rows[v] & ~selected):
            support_of[d] = support_of.get(d, 0) | 1 << v
    supports = list(support_of.values())
    chosen: list[int] = []
    placed = 0
    remaining = sorted(sel)
    while remaining:
        best = None
        best_key = None
        for v in remaining:
            trial = placed | 1 << v
            completed = sum(1 for s in supports if s >> v & 1 and not s & ~trial)
            leftover = sum((s & ~trial).bit_count() for s in supports)
            key = (-completed, leftover, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        chosen.append(best)
        placed |= 1 << best
        remaining.remove(best)
    return chosen


def _climb(masks: list[int], clause_vars: list[int], at_least_degree: list[int],
           sel: list[int], rows: list[int]) -> int:
    """Best-improvement swaps until no valid swap raises the score; returns the score.

    masks[v] holds the clauses of variable v, clause_vars[a] the variables
    of clause a, and at_least_degree[x] the variables in at least x
    clauses. `rows` are the kernel rows reduced on `sel` (row i has bit
    sel[i] and no other selected bit); both lists are updated in place.
    Swapping sel[c] for a dependent d keeps the block full-rank iff
    rows[c] has bit d, and it scores the clauses covered by the other
    free variables or by d. Swaps are tried by free position, then by
    ascending d, and the first best one is taken: one pivot on (c, d),
    after which the block is sel without sel[c], then d.

    Only swaps that can strictly beat the best score so far are scored.
    With S the block's cover, alone_c the u_c clauses that only sel[c]
    covers and g_d the uncovered clauses d is in, the swap scores
    S - u_c + g_d + |masks[d] & alone_c|, so it gains at most
    min(g_d, deg_d - u_c). With thr = best - S it can win only if
    g_d > thr and deg_d > u_c + thr. A skipped swap would not have
    replaced the best one, so every choice is the one that scoring all
    swaps makes.
    """
    k = len(sel)
    uncovered_all = (1 << len(clause_vars)) - 1
    top = len(at_least_degree)
    while True:
        once = twice = 0  # clauses covered by at least one / two selected variables
        for v in sel:
            twice |= once & masks[v]
            once |= masks[v]
        # gains[t]: the variables in more than t uncovered clauses (none are
        # selected). Each clause's variables x ripple up one level, like a carry.
        gains: list[int] = []
        uncovered = uncovered_all & ~once
        while uncovered:
            low = uncovered & -uncovered
            uncovered ^= low
            x = clause_vars[low.bit_length() - 1]
            for t, level in enumerate(gains):
                gains[t] = level | x
                x &= level
            if x:
                gains.append(x)
        score = best = once.bit_count()
        choice = None
        for c in range(k):
            thr = best - score
            if thr >= len(gains):
                break
            alone = masks[sel[c]] & ~twice
            u = alone.bit_count()
            if u + thr + 1 >= top:
                continue
            survivors = rows[c] & gains[thr] & at_least_degree[u + thr + 1]
            others = once ^ alone
            while survivors:
                low = survivors & -survivors
                survivors ^= low
                d = low.bit_length() - 1
                s = (others | masks[d]).bit_count()
                if s > best:
                    best, choice = s, (c, d)
                    thr = best - score
                    if thr >= len(gains) or u + thr + 1 >= top:
                        break
                    survivors &= gains[thr] & at_least_degree[u + thr + 1]
        if choice is None:
            return score
        c, d = choice
        pivot = rows.pop(c)
        bit = 1 << d
        rows[:] = [row ^ pivot if row & bit else row for row in rows]
        rows.append(pivot)
        sel.pop(c)
        sel.append(d)


def gamma_estimate(tree_sizes, n: int) -> float:
    """Scaled tree-size exponent (1/n) * log2(mean(sqrt(T)))."""
    sizes = np.asarray(tree_sizes, dtype=np.float64)
    if sizes.size == 0:
        raise ValueError("tree_sizes must be nonempty")
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(math.log2(np.sqrt(sizes).mean()) / n)
