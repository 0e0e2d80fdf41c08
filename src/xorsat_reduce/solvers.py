"""Classical decision, counting, and backtracking solvers over the reduced space.

All solvers work on the affine space produced by `reduce_instance`. The
backtracking pair is one walk, `_walk`, over a `StandardForm` of it: free
variables fixed in index order (branch 0 before 1), a branch cut as soon
as a clause is violated. It checks sibling nodes in batches, counting
the nodes a walk of single nodes visits. On the RREF basis form its
leaves come in the scan's order. Its checks assume that every point of
the form solves the instance's parity system, so the form must be the
instance's own: from `reduce_instance`, or `optimize_permutation` of it.
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
# Most sibling nodes `_walk` checks at once. On the 1in3 n 40/46 backtrack deck (2-core Xeon, Python 3.11),
# batches of 64 / 256 / 1024 / 4096 counted in 231 / 198 / 187 / 185 us and solved in 184 / 187 / 193 / 193 us.
_WALK_BATCH = 256


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
    for start, words in scan(instance, reduction):
        nonzero = np.flatnonzero(words)
        if nonzero.size:
            w = int(nonzero[0])
            word = int(words[w])
            first = start + 64 * w + (word & -word).bit_length() - 1  # the word's lowest set bit
            return SolveOutcome(True, expand_index(reduction, first), first + 1)
    return SolveOutcome(False, None, 1 << reduction.free_count)


def count_enumerate(instance: Instance, reduction=None) -> int:
    """Exact solution count by checking every reduced-space candidate."""
    if reduction is None:
        reduction = reduce_instance(instance)
    if isinstance(reduction, XorInfeasible):
        return 0
    return sum(int(np.bitwise_count(words).sum()) for _, words in scan(instance, reduction))


def _compiled_checks(instance: Instance, form: gf2.StandardForm) -> tuple[list[list], list[list]]:
    """Each depth's cut patterns and bounds checks for `_walk` on `form`: (cuts, checks)."""
    k = form.free_count
    # ready[c] is the depth from which coordinate c is determined; determined[d] masks
    # the coordinates that no row at index d or above holds.
    ready = [0] * form.n
    determined = [(1 << form.n) - 1] * (k + 1)
    seen = 0
    for depth in range(k, 0, -1):
        row = form.rows[depth - 1]
        for var in _set_bits(row & ~seen):
            ready[var] = depth
        seen |= row
        determined[depth - 1] = determined[k] ^ seen
    cuts = [[] for _ in range(k + 1)]
    checks = [[] for _ in range(k + 1)]
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
    return cuts, checks


def _walk(instance: Instance, form: gf2.StandardForm,
          find_first: bool) -> tuple[int, np.ndarray | None, TreeStats]:
    """One depth-first walk of `form`'s decision tree, in batches of sibling nodes.

    Returns the solutions counted, the first one (unpacked, and only when
    `find_first` stops the walk on it) and the tree's node counts.

    The node at depth d has fixed the parameters v_i with i < d, and its
    packed assignment x is `point` XOR rows[i] for each of them set to 1:
    its children are x on the 0-branch and x ^ rows[d] on the 1-branch.
    Coordinate c is determined from depth ready[c], the depth of the
    deepest row holding it (free[d] at d + 1, a coordinate no row holds
    at 0). The other bits of x are meaningless, so every check masks them
    away.

    The stack holds batches of nodes of one depth in preorder, each at
    most _WALK_BATCH 64-bit words (_WALK_BATCH nodes up to n = 64), and
    about one batch per depth waits on it. A popped batch is counted,
    filtered by its depth's checks in order, and its survivors' children
    are pushed in preorder, the last batch first.

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

    With `find_first` the walk stops at the first surviving leaf, and
    takes off the counts the nodes after its ancestor in each depth's last
    batch, which single nodes would not have visited. Nodes of one depth
    are distinct; the ancestor one up is x ^ rows[d - 1] when x holds bit
    free[d - 1] (point and the other rows are 0 there).
    """
    if form.n != instance.n:
        raise ValueError(f"the form has {form.n} variables and the instance {instance.n}")
    cuts, checks = _compiled_checks(instance, form)
    k, rows = form.free_count, form.rows
    size = max(1, _WALK_BATCH * 64 // max(form.n, 64))
    nodes = [0] * (k + 1)
    last = [[]] * (k + 1)  # the batch last popped at each depth
    count = 0
    stack = [(0, [form.point])]
    while stack:
        depth, live = stack.pop()
        nodes[depth] += len(live)
        last[depth] = live
        for mask, want in cuts[depth]:
            live = [x for x in live if x & mask != want]
        for mask, negated, lo, q in checks[depth]:
            live = [x for x in live if lo <= ((x ^ negated) & mask).bit_count() <= q]
        if depth < k:
            row = rows[depth]
            children = live * 2
            children[::2] = live
            children[1::2] = [x ^ row for x in live]
            stack += [(depth + 1, children[i:i + size]) for i in reversed(range(0, len(children), size))]
        elif find_first and live:
            x = live[0]
            for d in range(k, -1, -1):
                nodes[d] -= len(last[d]) - 1 - last[d].index(x)
                if d and x >> form.free[d - 1] & 1:
                    x ^= rows[d - 1]
            return 1, gf2._unpack(live[:1], form.n)[0], TreeStats(sum(nodes), tuple(nodes))
        else:
            count += len(live)
    return count, None, TreeStats(sum(nodes), tuple(nodes))


def backtrack_solve(instance: Instance, reduction) -> tuple[SolveOutcome, TreeStats]:
    """Depth-first search for one solution; returns the outcome and tree size.

    Queries counts the full assignments reached (depth-k nodes). For an
    XorInfeasible input no tree is built and T = 0.
    """
    if isinstance(reduction, XorInfeasible):
        return SolveOutcome(False, None, 0), TreeStats(0, ())
    _, first, stats = _walk(instance, reduction.standard, find_first=True)
    return SolveOutcome(first is not None, first, stats.nodes_per_depth[-1]), stats


def backtrack_count(instance: Instance, reduction) -> tuple[int, TreeStats]:
    """Exhaustive decision-tree walk; the tree size here is the T used for gamma."""
    if isinstance(reduction, XorInfeasible):
        return 0, TreeStats(0, ())
    count, _, stats = _walk(instance, reduction.standard, find_first=False)
    return count, stats


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
    blocks). A climb moves only on a strict gain, so the first one ends
    on the input block or on a better one. The finalists are the
    distinct blocks of the best score, kept as the climbs end: a higher
    score replaces them, a tie joins them. Among them, the sorted block
    with the least readiness penalty (ties: the smallest sorted block)
    is chosen, since early-determined coordinates are what lets the
    backtracker cut branches, and its free variables are put in the
    greedy readiness order. The returned reduction never scores below
    the input and spans the same solution set; deterministic per seed.

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

    best_score = -1
    finalists: dict[tuple, dict] = {}  # sorted block -> {selected column: its reduced row}
    orders = _random_orders(rng, n, trials - 1)
    for trial in range(trials):
        rows = list(sf.rows)
        if trial == 0:
            sel = list(input_sel)
        else:
            # A random column order; its pivots are a uniform-ish random full-rank block.
            sel = gf2._gauss_jordan(rows, next(orders))
        score = _climb(masks, clause_vars, at_least_degree, sel, rows)
        if score > best_score:
            best_score, finalists = score, {}
        if score == best_score:
            # A block's reduced rows are unique, so the first ones seen are its rows.
            finalists.setdefault(tuple(sorted(sel)), dict(zip(sel, rows)))
    chosen = min(sorted(finalists), key=lambda sel: _readiness_penalty(sel, finalists[sel]))
    rows = finalists[chosen]
    order = _readiness_order(chosen, rows)
    if order == input_sel:
        return reduction
    return Reduction(reduction.basis, gf2.reduced_standard_form(order, [rows[v] for v in order], sf.point, n))


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

    A dependent's support is the set of selected variables whose reduced
    rows hold it, kept as a bitmask over variables. Greedy: repeatedly
    append the variable that completes the most still-open supports
    (those whose unplaced part is exactly that variable), then the one
    in the most supports, then the smallest index (deterministic). The
    second key is static: v is in one support per dependent its row
    holds. It ranks candidates as "the least support left open" would,
    since that sum is the round's open support minus it. So each round
    is one pass over the supports.
    """
    selected = sum(1 << v for v in sel)
    support_of: dict[int, int] = {}
    for v in sel:
        for d in _set_bits(rows[v] & ~selected):
            support_of[d] = support_of.get(d, 0) | 1 << v
    supports = list(support_of.values())
    holders = {v: (rows[v] & ~selected).bit_count() for v in sel}
    remaining = set(sel)
    placed = 0
    chosen: list[int] = []
    while remaining:
        completes = dict.fromkeys(remaining, 0)
        for s in supports:
            left = s & ~placed
            if left and not left & (left - 1):
                completes[left.bit_length() - 1] += 1
        best = min(remaining, key=lambda v: (-completes[v], -holders[v], v))
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
