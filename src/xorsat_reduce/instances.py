"""Occupation (q-in-p-SAT) instances: data model, evaluation, generation, file I/O.

A clause holds p literals over pairwise-distinct variables and is satisfied
when exactly q of them are true. Assignments are plain uint8 arrays of
length n; partial assignments are int8 arrays where INDETERMINATE (-1)
marks an unset variable.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bits import bit_block
from .errors import GenerationError, GuardExceeded, ParseError

INDETERMINATE = -1

BRUTE_FORCE_MAX_VARS = 24
_ENUM_BLOCK = 1 << 16
_GENERATION_RESTARTS = 100


class ClauseStatus(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Literal:
    var: int
    negated: bool = False


@dataclass(frozen=True)
class Clause:
    """Exactly-q-of-p constraint over distinct variables.

    q may exceed the literal count (such a clause is structurally
    unsatisfiable); the Hamiltonian-cycle reduction emits these for
    nodes of degree below two.
    """

    literals: tuple[Literal, ...]
    q: int

    def __post_init__(self):
        if not self.literals:
            raise ValueError("clause needs at least one literal")
        variables = [lit.var for lit in self.literals]
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable in clause: {variables}")
        if self.q < 1:
            raise ValueError(f"occupation number must be >= 1, got {self.q}")

    @property
    def p(self) -> int:
        return len(self.literals)

    @property
    def negation_count(self) -> int:
        return sum(lit.negated for lit in self.literals)


@dataclass(frozen=True)
class Instance:
    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for clause in self.clauses:
            for lit in clause.literals:
                if not 0 <= lit.var < self.n:
                    raise ValueError(f"literal variable {lit.var} not in [0, {self.n})")

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def alpha(self) -> float:
        return self.m / self.n if self.n else 0.0


def clause(var_signs, q: int) -> Clause:
    """Shorthand constructor from (var, negated) pairs."""
    return Clause(tuple(Literal(v, bool(neg)) for v, neg in var_signs), q)


def eval_clause(c: Clause, assignment) -> bool:
    """True iff exactly c.q literals are true under a full assignment."""
    values = np.asarray(assignment)
    true_count = 0
    for lit in c.literals:
        if lit.var >= values.size:
            raise ValueError(f"assignment of length {values.size} does not cover variable {lit.var}")
        true_count += int(values[lit.var]) ^ int(lit.negated)
    return true_count == c.q


def eval_instance(instance: Instance, assignment) -> bool:
    values = np.asarray(assignment)
    if values.size != instance.n:
        raise ValueError(f"assignment length {values.size} != n = {instance.n}")
    return all(eval_clause(c, values) for c in instance.clauses)


def eval_clause_partial(c: Clause, values) -> ClauseStatus:
    """Clause status under a partial assignment.

    VIOLATED when no completion of the indeterminate variables can reach
    exactly q true literals; SATISFIED when every completion does (all
    literals determined and exactly q true); INDETERMINATE otherwise.
    """
    vals = np.asarray(values)
    true_count = 0
    open_count = 0
    for lit in c.literals:
        v = int(vals[lit.var])
        if v == INDETERMINATE:
            open_count += 1
        else:
            true_count += v ^ int(lit.negated)
    if true_count > c.q or true_count + open_count < c.q:
        return ClauseStatus.VIOLATED
    if open_count == 0:
        return ClauseStatus.SATISFIED
    return ClauseStatus.INDETERMINATE


def brute_force_solutions(instance: Instance) -> list[np.ndarray]:
    """All satisfying assignments, lexicographically ordered (x1 most significant).

    Independent of the reduction pipeline; guarded to n <= 24. Each
    clause's true literals are counted in int64, which no arity can
    wrap; a q above p can never be met, so it is compared as p + 1.
    """
    if instance.n > BRUTE_FORCE_MAX_VARS:
        raise GuardExceeded("brute-force variable count", instance.n, BRUTE_FORCE_MAX_VARS)
    solutions: list[np.ndarray] = []
    total = 1 << instance.n
    for start in range(0, total, _ENUM_BLOCK):
        block = bit_block(start, min(start + _ENUM_BLOCK, total), instance.n)
        good = np.ones(len(block), dtype=bool)
        for c in instance.clauses:
            true_count = np.zeros(len(block), dtype=np.int64)
            for lit in c.literals:
                true_count += block[:, lit.var] ^ lit.negated
            good &= true_count == min(c.q, c.p + 1)
        solutions.extend(block[i].copy() for i in np.flatnonzero(good))
    return solutions


def gen_locked_random(
    n: int,
    m: int,
    p: int,
    q: int,
    negation_prob: float = 0.5,
    seed: int | np.random.Generator = 0,
) -> Instance:
    """Random instance with m clauses of p distinct variables, every variable in >= 2 clauses.

    Clauses are sampled as uniform p-subsets; variables left with degree
    below two are repaired by swapping them into clause slots whose
    occupant can spare the occurrence. Each literal is independently
    negated with probability `negation_prob`. Deterministic for a fixed
    seed. Raises GenerationError when p*m < 2n (pigeonhole-infeasible)
    or when repair fails after bounded restarts.
    """
    check_generator_parameters(n, m, p, q, negation_prob)
    if p * m < 2 * n:
        raise GenerationError(
            f"cannot lock {n} variables with {m} clauses of {p} literals ({p * m} slots < {2 * n})"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    for _ in range(_GENERATION_RESTARTS):
        clause_vars = [rng.choice(n, size=p, replace=False).tolist() for _ in range(m)]
        degree = [0] * n
        for cv in clause_vars:
            for v in cv:
                degree[v] += 1
        if _repair_degrees(clause_vars, degree, rng):
            negated = (rng.random(size=(m, p)) < negation_prob).tolist()
            return Instance(
                n, tuple(Clause(tuple(map(Literal, cv, signs)), q) for cv, signs in zip(clause_vars, negated))
            )
    raise GenerationError(
        f"could not lock n={n} m={m} p={p} within {_GENERATION_RESTARTS} restarts"
    )


def check_generator_parameters(n: int, m: int, p: int, q: int, negation_prob: float) -> None:
    """Raise ValueError unless gen_locked_random accepts these parameters."""
    if n < 1 or m < 0 or not 1 <= p <= n or not 1 <= q <= p:
        raise ValueError(f"bad generator parameters n={n} m={m} p={p} q={q}")
    if not 0.0 <= negation_prob <= 1.0:
        raise ValueError(f"negation_prob must be in [0, 1], got {negation_prob}")


def _repair_degrees(clause_vars, degree, rng) -> bool:
    """Swap under-used variables into clause slots until every degree is >= 2.

    One pass, in increasing variable order. A placement of v raises
    degree[v] and lowers only an occupant w with degree[w] >= 3, so no
    variable ever drops below two: the variables lacking at the start are
    the only ones ever lacking, and each is placed until its degree reaches
    two before the next is visited. Every placement gets 200 n + 100 draws
    of a (clause, slot) pair; False when one runs out of them.
    """
    m = len(clause_vars)
    attempts = 200 * len(degree) + 100
    for v in [v for v, d in enumerate(degree) if d < 2]:
        while degree[v] < 2:
            for _ in range(attempts):
                cv = clause_vars[int(rng.integers(m))]
                if v in cv:
                    continue
                slot = int(rng.integers(len(cv)))
                w = cv[slot]
                if degree[w] < 3:
                    continue
                cv[slot] = v
                degree[w] -= 1
                degree[v] += 1
                break
            else:
                return False
    return True


def parse_instance(text: str) -> Instance:
    """Parse the occupation file format; inverse of emit_instance.

    Format: optional `c` comment lines, one `p occ <n> <M> <q_default>`
    header, then one clause per line as signed 1-based literals
    terminated by 0, optionally prefixed with `q=<int>`.
    """
    n = None
    m_declared = 0
    q_default = 1
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            fields = line.split()
            if len(fields) != 5 or fields[1] != "occ":
                raise ParseError(lineno, f"malformed header {line!r}, expected 'p occ <n> <M> <q>'")
            try:
                n, m_declared, q_default = (int(f) for f in fields[2:])
            except ValueError:
                raise ParseError(lineno, f"non-integer header field in {line!r}") from None
            if n < 0 or m_declared < 0 or q_default < 1:
                raise ParseError(lineno, f"header values out of range: n={n} M={m_declared} q={q_default}")
            continue
        if n is None:
            raise ParseError(lineno, "clause line before header")
        clauses.append(_parse_clause_line(line, lineno, n, q_default))
    last_line = max(1, len(text.splitlines()))
    if n is None:
        raise ParseError(last_line, "missing 'p occ' header")
    if len(clauses) != m_declared:
        raise ParseError(last_line, f"header declares {m_declared} clauses, found {len(clauses)}")
    return Instance(n, tuple(clauses))


def _parse_clause_line(line: str, lineno: int, n: int, q_default: int) -> Clause:
    tokens = line.split()
    q = q_default
    if tokens and tokens[0].startswith("q="):
        try:
            q = int(tokens[0][2:])
        except ValueError:
            raise ParseError(lineno, f"malformed occupation prefix {tokens[0]!r}") from None
        if q < 1:
            raise ParseError(lineno, f"occupation number out of range: {q}")
        tokens = tokens[1:]
    if not tokens or tokens[-1] != "0":
        raise ParseError(lineno, "clause line must end with 0")
    literals = []
    for tok in tokens[:-1]:
        try:
            lit = int(tok)
        except ValueError:
            raise ParseError(lineno, f"bad literal token {tok!r}") from None
        if lit == 0:
            raise ParseError(lineno, "literal 0 before end of clause")
        if abs(lit) > n:
            raise ParseError(lineno, f"literal index {abs(lit)} out of range (n = {n})")
        literals.append(Literal(abs(lit) - 1, lit < 0))
    if not literals:
        raise ParseError(lineno, "empty clause")
    variables = [lit.var for lit in literals]
    if len(set(variables)) != len(variables):
        raise ParseError(lineno, f"repeated variable in clause: {sorted(v + 1 for v in variables)}")
    return Clause(tuple(literals), q)


def emit_instance(instance: Instance) -> str:
    """Serialize to the occupation file format (single-space separated)."""
    if instance.clauses:
        counts = Counter(c.q for c in instance.clauses)
        best = max(counts.values())
        q_default = min(q for q, cnt in counts.items() if cnt == best)
    else:
        q_default = 1
    lines = [f"p occ {instance.n} {instance.m} {q_default}"]
    for c in instance.clauses:
        body = " ".join(str(lit.var + 1) if not lit.negated else str(-(lit.var + 1)) for lit in c.literals)
        prefix = f"q={c.q} " if c.q != q_default else ""
        lines.append(f"{prefix}{body} 0")
    return "\n".join(lines) + "\n"
