"""Classical decision, counting, and backtracking solvers over the reduced space.

All solvers work on the affine space produced by `reduce_instance`; the
backtracking pair additionally exploits the standard form, fixing free
variables in index order (branch 0 before 1) and cutting a branch as
soon as any clause is violated under the induced partial assignment.
Their checks assume that every point of the space solves the instance's
parity system, so the reduction they take must be the instance's own:
from `reduce_instance`, or `optimize_permutation` of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .instances import Instance
from .reduction import Reduction, XorInfeasible, expand_index, reduce_instance, scan

# Most entries drawn at once for the climb's random column orders.
_ORDER_BLOCK = 1 << 16


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

    The node at depth d has fixed the parameters v_i with i < d, and its
    packed assignment xs[d] is `point` XOR rows[i] for each of them set to
    1: xs[d + 1] is xs[d] on the 0-branch and xs[d] ^ rows[d] on the
    1-branch. Coordinate c is determined from depth ready[c], the depth of
    the deepest row holding it (free[d] at d + 1, a coordinate no row
    holds at 0). The other bits of xs[d] are meaningless, so every check
    masks them away and leaving a node undoes nothing.

    Every node's assignment solves the parity system, which gives two facts.
    Each row meets each clause in an even number of variables, so a
    clause's last two literals are determined at the same depth. And once
    all p literals are determined, the true-literal count t has q's parity:
    t = q, or t differs from q by 2 or more.

    A clause's check comes at each depth where it gains a determined
    literal. When q <= 2 and q <= p <= q + 2, the finished clause fails
    only at t = q + 2 = p or at t = q - 2 = 0, so its check is one or two
    cut patterns in cuts[d]: (mask, want) with mask its variables, and the
    node is cut when x & mask == want. That is all literals true
    (want = mask ^ negated, the variables of its positive literals) when
    p = q + 2, and all literals false (want = negated) when q = 2; 1-in-1
    and 1-in-2 clauses need no check at all. Every other check is one
    (mask, negated, lo, q) in checks[d]: mask and negated cover its
    literals determined so far, and lo = q - (literals still open). The
    node is cut when t = ((x ^ negated) & mask).bit_count() is above q or
    below lo. A check that no value can fail (mask has at most q bits and
    lo <= 0) is dropped. A clause with q > p starts with lo above its
    determined count, so it cuts at the first depth where it has one. Each
    node tests its depth's cut patterns, then its bounds.
    """

    def __init__(self, instance: Instance, reduction: Reduction, find_first: bool):
        self.find_first = find_first
        self.standard = sf = reduction.standard
        self.k = k = sf.free_count
        # determined[d] masks the coordinates that no row at index d or above holds.
        ready = [0] * sf.n
        determined = [(1 << sf.n) - 1] * (k + 1)
        seen = 0
        for depth in range(k, 0, -1):
            row = sf.rows[depth - 1]
            for var in _set_bits(row & ~seen):
                ready[var] = depth
            seen |= row
            determined[depth - 1] = determined[k] ^ seen
        self.cuts = cuts = [[] for _ in range(k + 1)]
        self.checks = checks = [[] for _ in range(k + 1)]
        for clause_vars, mask, negated, q in zip(instance.variables, instance.variable_masks,
                                                 instance.negated_masks, instance.occupations):
            depths = sorted([ready[v] for v in clause_vars])
            p = len(depths)
            # In depth order, `known` literals are determined at depths[known - 1]; each
            # depth's check comes at its last literal.
            for known, depth in enumerate(depths, 1):
                if known < p and depths[known] == depth:
                    continue
                lo = q - p + known
                if known == p and q <= 2 and p - 2 <= q <= p:
                    if p == q + 2:
                        cuts[depth].append((mask, mask ^ negated))
                    if q == 2:
                        cuts[depth].append((mask, negated))
                elif known > q or lo > 0:
                    held = mask & determined[depth]
                    checks[depth].append((held, negated & held, lo, q))
        self.nodes_per_depth = [0] * (k + 1)
        self.solution_count = 0
        self.first_solution: np.ndarray | None = None

    def run(self) -> TreeStats:
        k, sf, cuts, checks = self.k, self.standard, self.cuts, self.checks
        rows, nodes = sf.rows, self.nodes_per_depth
        x = sf.point
        xs = [x] * (k + 1)
        depth = 0
        while True:
            nodes[depth] += 1
            for mask, want in cuts[depth]:
                if x & mask == want:
                    break
            else:
                for mask, negated, lo, q in checks[depth]:
                    t = ((x ^ negated) & mask).bit_count()
                    if t > q or t < lo:
                        break
                else:
                    if depth < k:
                        depth += 1
                        xs[depth] = x
                        continue
                    self.solution_count += 1
                    if self.first_solution is None:
                        self.first_solution = gf2._unpack([x], sf.n)[0]
                    if self.find_first:
                        break
            # Leave 1-branches (rows[d] holds free[d], so xs changes there); the first
            # 0-branch found turns into its 1-branch sibling.
            while depth and xs[depth] != xs[depth - 1]:
                depth -= 1
            if not depth:
                break
            x = xs[depth] = xs[depth - 1] ^ rows[depth - 1]
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
    for a, clause_vars in enumerate(instance.variables):
        bit = 1 << a
        for v in clause_vars:
            masks[v] |= bit
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
    rng = np.random.default_rng(seed)
    masks = _clause_masks(instance)
    clause_vars = instance.variable_masks
    at_least_degree = _at_least_degree(masks)
    input_sel = list(sf.free)

    # sorted block -> (score, {selected column: its reduced row})
    candidates = {
        tuple(sorted(input_sel)): (_coverage(masks, input_sel), dict(zip(input_sel, sf.rows)))
    }
    orders = _random_orders(rng, n, trials - 1)
    for trial in range(trials):
        rows = list(sf.rows)
        if trial == 0:
            sel = list(input_sel)
        else:
            # A random column order; its pivots are a uniform-ish random full-rank block.
            sel = gf2._gauss_jordan(rows, next(orders))
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


def _random_orders(rng: np.random.Generator, n: int, count: int):
    """`count` random orders of range(n), as lists: those of `count` rng.permutation(n) calls.

    They leave the generator in the same state as those calls. Orders are
    drawn in chunks of at most _ORDER_BLOCK entries, so a large count
    never allocates count x n at once.
    """
    per_chunk = max(1, _ORDER_BLOCK // n)
    while count:
        chunk = min(count, per_chunk)
        yield from rng.permuted(np.tile(np.arange(n), (chunk, 1)), axis=1).tolist()
        count -= chunk


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
