"""Occupation (q-in-p-SAT) instances: data model, evaluation, generation, file I/O.

A clause holds p literals over pairwise-distinct variables and is satisfied
when exactly q of them are true. An `Instance` stores its clauses once, as
a flat table of three parallel tuples with one entry per clause:
`variables` (the variable of each literal, in literal order), `negations`
(bit j set iff literal j is negated, so p bits wide, not n) and
`occupations` (q). `parse_instance`, `gen_locked_random` and
`hc_to_occupation` fill the table directly, and every later stage reads
it. The n-bit ints that the packed stages use, `variable_masks` and
`negated_masks`, are derived on first use and cached on the instance.
`Clause` and `Literal` are the constructor's input, `Instance(n, clauses)`,
and the read-only `clauses` view, built only when something reads it;
`eval_clause` and `eval_instance` walk that view, as a check of a
candidate that is independent of the table (the brute-force enumeration
the tests compare every solver against walks it too). Assignments are
plain uint8 arrays of length n.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GenerationError, GuardExceeded, ParseError

# Most literal slots p*m gen_locked_random fills (it bounds n too, as p*m >= 2n). At the guard, on 2 shared
# cores, 1-in-3 with n = m took 3.2 s and 136 MB, and 1-in-1 with p*m = 2n, the slowest shape found, 13 s
# and 240 MB; the largest instance the tests generate has 3,000 slots.
GENERATE_MAX_SLOTS = 1 << 20
_REPAIR_CHUNK = 64  # degree-repair attempts drawn per numpy call


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


@dataclass(frozen=True, init=False)
class Instance:
    """n variables and the clause table: per clause a, the variables of its
    literals in order, their negations as bits over literal positions, and q.

    Equality and hash are over (n, table). `Instance(n, clauses)` checks
    its `Clause` objects against n and keeps them as the `clauses` view.
    """

    n: int
    variables: tuple[tuple[int, ...], ...]
    negations: tuple[int, ...]
    occupations: tuple[int, ...]

    def __init__(self, n: int, clauses):
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        clauses = tuple(clauses)
        variables = []
        negations = []
        for c in clauses:
            clause_vars = tuple(operator.index(lit.var) for lit in c.literals)
            for v in clause_vars:
                if not 0 <= v < n:
                    raise ValueError(f"literal variable {v} not in [0, {n})")
            variables.append(clause_vars)
            negations.append(sum(1 << j for j, lit in enumerate(c.literals) if lit.negated))
        self.__dict__.update(n=n, variables=tuple(variables), negations=tuple(negations),
                             occupations=tuple(c.q for c in clauses), clauses=clauses)

    @classmethod
    def _from_table(cls, n: int, variables, negations, occupations) -> "Instance":
        """An instance over a table that its producer has already checked: every
        variable tuple nonempty, repeat-free and in [0, n), every q >= 1."""
        instance = object.__new__(cls)
        instance.__dict__.update(n=n, variables=variables, negations=negations, occupations=occupations)
        return instance

    @property
    def m(self) -> int:
        return len(self.occupations)

    @property
    def alpha(self) -> float:
        return self.m / self.n if self.n else 0.0

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses as `Clause`/`Literal` objects, built on first read."""
        return tuple(
            Clause(tuple(Literal(v, bool(neg >> j & 1)) for j, v in enumerate(clause_vars)), q)
            for clause_vars, neg, q in zip(self.variables, self.negations, self.occupations)
        )

    @cached_property
    def variable_masks(self) -> tuple[int, ...]:
        """Bit v of entry a is set iff variable v occurs in clause a."""
        masks = []
        for clause_vars in self.variables:
            mask = 0
            for v in clause_vars:
                mask |= 1 << v
            masks.append(mask)
        return tuple(masks)

    @cached_property
    def negated_masks(self) -> tuple[int, ...]:
        """Bit v of entry a is set iff variable v occurs negated in clause a."""
        masks = []
        for clause_vars, negated in zip(self.variables, self.negations):
            mask = 0
            for j, v in enumerate(clause_vars):
                if negated >> j & 1:
                    mask |= 1 << v
            masks.append(mask)
        return tuple(masks)


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
    seed. Raises GuardExceeded past GENERATE_MAX_SLOTS slots p*m, and
    GenerationError when p*m < 2n or the repair runs out of draws.
    """
    check_generator_parameters(n, m, p, q, negation_prob)
    if p * m < 2 * n:
        raise GenerationError(
            f"cannot lock {n} variables with {m} clauses of {p} literals ({p * m} slots < {2 * n})"
        )
    rng = np.random.default_rng(seed)
    clause_vars = [rng.choice(n, size=p, replace=False).tolist() for _ in range(m)]
    degree = [0] * n
    for cv in clause_vars:
        for v in cv:
            degree[v] += 1
    _repair_degrees(clause_vars, degree, rng)
    # Row a's negations as bytes, least significant literal first.
    packed = np.packbits(rng.random(size=(m, p)) < negation_prob, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    negations = tuple(int.from_bytes(data[a * width : (a + 1) * width], "little") for a in range(m))
    return Instance._from_table(n, tuple(map(tuple, clause_vars)), negations, (q,) * m)


def check_generator_parameters(n: int, m: int, p: int, q: int, negation_prob: float) -> None:
    """Raise ValueError unless gen_locked_random accepts these parameters; GuardExceeded past its guard."""
    if n < 1 or m < 0 or not 1 <= p <= n or not 1 <= q <= p:
        raise ValueError(f"bad generator parameters n={n} m={m} p={p} q={q}")
    if not 0.0 <= negation_prob <= 1.0:
        raise ValueError(f"negation_prob must be in [0, 1], got {negation_prob}")
    if p * m > GENERATE_MAX_SLOTS:
        raise GuardExceeded("generated literal slots p*m", p * m, GENERATE_MAX_SLOTS)


def clause_count(n: int, alpha: float) -> int:
    """M = floor(alpha * n), the clause count a density alpha gives n variables.

    Raises ValueError naming alpha when alpha * n is not finite: an
    infinite or NaN alpha, or a product that overflows a float.
    """
    try:
        return math.floor(alpha * n)
    except (OverflowError, ValueError):  # floor of an infinity, of NaN, or an int n beyond float range
        raise ValueError(f"alpha * n must be finite, got alpha={alpha} n={n}") from None


def _repair_degrees(clause_vars, degree, rng) -> None:
    """Swap under-used variables into clause slots until every degree is >= 2.

    One pass, in increasing variable order. A placement of v raises
    degree[v] and lowers only an occupant w with degree[w] >= 3, so no
    variable ever drops below two: the variables lacking at the start are
    the only ones ever lacking, and each is placed until its degree reaches
    two before the next is visited. Every placement gets 200 n + 100 draws
    of a (clause, slot) pair; GenerationError when one runs out of them.

    An attempt draws `rng.integers(m)` for the clause and, unless that
    clause already holds v, `rng.integers(p)` for the slot. The draws come
    from `rng` exactly as these scalar calls would take them, a chunk at a
    time, and the caller's generator ends where the scalar calls leave it:
    - numpy draws every entry of `rng.integers(0, bounds)` with the same
      bounded method (Lemire's) and from the same bit stream as a scalar
      call with that bound, so one call with the bounds (m, p) repeated
      `_REPAIR_CHUNK` times returns what that many alternating scalar
      draws would, and leaves the same state;
    - the stream leaves that pattern when a drawn clause holds v (the next
      draw is a clause, not a slot) and when the repair ends or raises. At
      each of these, `rng.bit_generator.state` is set back to the state
      saved before the chunk and only the prefix of bounds used so far is
      drawn again, which puts the generator where the scalar calls
      stopped. An instance with no lacking variable draws nothing.
    """
    n, m, p = len(degree), len(clause_vars), len(clause_vars[0])
    attempts = 200 * n + 100
    bounds = np.full(2 * _REPAIR_CHUNK, m)
    bounds[1::2] = p
    draws, used, saved = [], 0, None  # the chunk's draws, how many the loop has read, the state before it
    try:
        for v in [v for v, d in enumerate(degree) if d < 2]:
            while degree[v] < 2:
                for _ in range(attempts):
                    if used == len(draws) or used % 2:  # spent, or a clause draw is due where a slot was drawn
                        if used % 2:
                            rng.bit_generator.state = saved
                            rng.integers(0, bounds[:used])
                        saved = rng.bit_generator.state
                        draws, used = rng.integers(0, bounds).tolist(), 0
                    cv = clause_vars[draws[used]]
                    used += 1
                    if v in cv:
                        continue
                    slot = draws[used]
                    used += 1
                    w = cv[slot]
                    if degree[w] < 3:
                        continue
                    cv[slot] = v
                    degree[w] -= 1
                    degree[v] += 1
                    break
                else:
                    raise GenerationError(
                        f"could not lock n={n} m={m} p={p}: a placement ran out of {attempts} draws"
                    )
    finally:
        if used < len(draws):
            rng.bit_generator.state = saved
            rng.integers(0, bounds[:used])


def read_records(text: str, kind: str, record: str, names, minimums, read_line):
    """The file grammar both input formats share: (header values, one `read_line` result per body line).

    Blank lines and stripped lines starting with `c` are skipped. A
    stripped line starting with `p` is the header, which must appear
    once, before every body line, as exactly `p <kind>` and one int per
    name in `names`, each at least its entry of `minimums`; the second
    value is the declared count of body lines. Every other line is a
    `record` line, passed as `read_line(line, lineno, header)`.
    """
    header = None
    results = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError(lineno, "duplicate header")
            fields = line.split()
            if len(fields) != 2 + len(names) or fields[:2] != ["p", kind]:
                expected = " ".join(["p", kind] + [f"<{name}>" for name in names])
                raise ParseError(lineno, f"malformed header {line!r}, expected {expected!r}")
            try:
                header = tuple(int(f) for f in fields[2:])
            except ValueError:
                raise ParseError(lineno, f"non-integer header field in {line!r}") from None
            if any(value < least for value, least in zip(header, minimums)):
                values = " ".join(f"{name}={value}" for name, value in zip(names, header))
                raise ParseError(lineno, f"header values out of range: {values}")
            continue
        if header is None:
            raise ParseError(lineno, f"{record} line before header")
        results.append(read_line(line, lineno, header))
    last_line = max(1, len(lines))
    if header is None:
        raise ParseError(last_line, f"missing 'p {kind}' header")
    if len(results) != header[1]:
        raise ParseError(last_line, f"header declares {header[1]} {record}s, found {len(results)}")
    return header, results


def parse_instance(text: str) -> Instance:
    """Parse the occupation file format; inverse of emit_instance.

    Format (`read_records`): optional `c` comment lines, one
    `p occ <n> <M> <q_default>` header, then one clause per line as
    signed 1-based literals terminated by 0, optionally prefixed with
    `q=<int>`.
    """
    (n, _, _), rows = read_records(text, "occ", "clause", ("n", "M", "q"), (0, 0, 1), _parse_clause_line)
    variables, negations, occupations = zip(*rows) if rows else ((), (), ())
    return Instance._from_table(n, variables, negations, occupations)


def _parse_clause_line(line: str, lineno: int, header) -> tuple[tuple[int, ...], int, int]:
    """(variables, negation bits over literal positions, q) of one clause line."""
    n, _, q_default = header
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
    clause_vars = []
    negated = 0
    for j, tok in enumerate(tokens[:-1]):
        try:
            lit = int(tok)
        except ValueError:
            raise ParseError(lineno, f"bad literal token {tok!r}") from None
        if lit == 0:
            raise ParseError(lineno, "literal 0 before end of clause")
        if abs(lit) > n:
            raise ParseError(lineno, f"literal index {abs(lit)} out of range (n = {n})")
        if lit < 0:
            negated |= 1 << j
            clause_vars.append(~lit)
        else:
            clause_vars.append(lit - 1)
    if not clause_vars:
        raise ParseError(lineno, "empty clause")
    if len(set(clause_vars)) != len(clause_vars):
        raise ParseError(lineno, f"repeated variable in clause: {sorted(v + 1 for v in clause_vars)}")
    return tuple(clause_vars), negated, q


def emit_instance(instance: Instance) -> str:
    """Serialize to the occupation file format (single-space separated)."""
    if instance.m:
        counts = Counter(instance.occupations)
        best = max(counts.values())
        q_default = min(q for q, cnt in counts.items() if cnt == best)
    else:
        q_default = 1
    lines = [f"p occ {instance.n} {instance.m} {q_default}"]
    for clause_vars, negated, q in zip(instance.variables, instance.negations, instance.occupations):
        body = " ".join([str(~v if negated >> j & 1 else v + 1) for j, v in enumerate(clause_vars)])
        lines.append(f"{body} 0" if q == q_default else f"q={q} {body} 0")
    return "\n".join(lines) + "\n"
