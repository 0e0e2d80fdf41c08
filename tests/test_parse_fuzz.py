"""Both file parsers on arbitrary text: every input parses or raises ParseError.

The token soup mixes well-formed pieces of either format (headers,
`q=` prefixes, edge lines, the `0` terminator) with the spellings that
int() and str.split() accept or reject in surprising ways: `-0`, `1_0`,
20-digit numbers, NUL, CR, a non-breaking space, a Unicode line
separator and a non-ASCII digit. Parsed instances are not reduced here:
a header may declare an n whose parity rows could not be allocated.
A seeded corpus per format from the same pieces, plus hand cases, pins
the outcome of every document: the instance or graph it parses to, or the
line and message of its ParseError.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsat_reduce.errors import ParseError
from xorsat_reduce.hamcycle import emit_graph, parse_graph
from xorsat_reduce.instances import emit_instance, parse_instance

SETTINGS = dict(deadline=None, derandomize=True, database=None, max_examples=250)

TOKENS = [
    "p", "occ", "edge", "e", "c", "q=", "q=2", "q=0", "q=-1", "q=x", "0", "-0", "1", "-1", "2", "3",
    "-3", "1_0", "007", "+2", "99999999999999999999", "-99999999999999999999", "\x00", "\r", "\t",
    "\u00a0", "\u2028", "\u0661",
]
HEADERS = ["p occ 3 1 1", "p occ 3 2 2", "p occ 99999999999999999999 1 1", "p edge 3 1", "p edge 3 2",
           "p occ", "c comment", ""]
LINES = ["1 -2 3 0", "q=2 1 2 0", "-1 0", "e 1 2", "e 2 3", "c x", ""]
SEPARATORS = ["\n", "\r\n", "\r", "\n\n"]

soup_line = st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=3)), max_size=6).map(" ".join)
documents = st.one_of(
    st.text(max_size=200),
    st.tuples(
        st.sampled_from(HEADERS),
        st.lists(st.one_of(st.sampled_from(LINES), soup_line), max_size=4),
        st.sampled_from(SEPARATORS),
    ).map(lambda parts: parts[2].join([parts[0], *parts[1]])),
)


@pytest.mark.parametrize("parse", [parse_instance, parse_graph])
@settings(**SETTINGS)
@given(text=documents)
def test_parse_returns_or_raises_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


# Orders and spellings a parser rewrite can break: which error a line with
# several faults reports, and what int() accepts.
HAND_CASES = [
    "p occ 2 1 1\n1 9 x 0\n",  # out-of-range literal before a bad token
    "p occ 2 1 1\n1 x 9 0\n",  # bad token before an out-of-range literal
    "p occ 3 1 1\n1 1 7 0\n",  # repeated variable, then an out-of-range literal
    "p occ 3 1 1\n2 -2 0\n",
    "p occ 3 1 1\n1 0 2 0\n",
    "p occ 3 1 1\n0 9 0\n",
    "p occ 3 1 1\n1 -0 0\n",
    "p occ 3 1 1\n1 2 -0\n",
    "p occ 12 1 1\n1_0 1 0\n",
    "p occ 3 1 1\n1_0 1 0\n",
    "p occ 3 1 1\n+2 -3 0\n",
    "p occ 3 1 1\n\u0661 -\u0663 0\n",
    "p occ 3 1 1\nq=\u0662 1 2 0\n",
    "p occ 3 1 1\nq=2 0\n",  # q= before an empty body
    "p occ 3 1 1\nq= 0\n",
    "p occ 3 1 1\nq=2\n",
    "p occ 3 1 1\nq=0 0\n",
    "p occ 3 1 1\nq=-1 x 0\n",
    "p occ 3 1 1\nq=x 1 0\n",
    "p occ 3 1 1\nq=+2 1 2 0\n",
    "p occ 3 1 1\nq=99999999999999999999 1 0\n",
    "p occ 3 2 2\nq=2 1 2 0\n-3 0\n",
    "p occ 3 2 2\n1 -2 0\nq=1 3 0\n",
    "p occ 3 1 +1\n1 0\n",
    "p occ 1_0 1 1\n10 0\n",
    "p occ -0 0 1\n",
    "p occ 3 1 0\n1 0\n",
    "pocc 3 1 1\n1 0\n",
    "p occ 3 1 1 1\n1 0\n",
    "p occ 3 x 1\n",
    "1 0\np occ 3 1 1\n",
    "p occ 3 1 1\n1 0\np occ 3 1 1\n",
    "p occ 3 2 1\n1 0\n",
    "p occ 3 0 1\n1 0\n",
    "p occ 3 1 1\n  c indented comment\ncomment\n -1   2\t0 \n",
    "p occ 3 1 1\r\n1 -2 3 0\r\n",
    "p occ 3 1 1\n1\x002 0\n",
    "p occ 3 1 1\n1\u00a02 0\n",
    "p occ 3 1 1\n1\u20282 0\n",
    "",
    "\n\n",
]


def parse_corpus(count: int = 3000, seed: int = 20261019) -> list[str]:
    """The hand cases, then `count` seeded documents built from the fuzzer's pieces.

    Half of the documents start with a header that declares their line
    count, and half of the soup lines end in the `0` terminator, so that
    many reach the literal checks and some parse.
    """
    rng = random.Random(seed)
    documents = list(HAND_CASES)
    for _ in range(count):
        lines = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.4:
                lines.append(rng.choice(LINES))
            else:
                tokens = [rng.choice(TOKENS) for _ in range(rng.randint(0, 5))]
                lines.append(" ".join(tokens + ["0"] * (rng.random() < 0.5)))
        header = rng.choice(HEADERS) if rng.random() < 0.5 else f"p occ 3 {len(lines)} {rng.randint(1, 2)}"
        documents.append(rng.choice(SEPARATORS).join([header, *lines]))
    return documents


GRAPH_HAND_CASES = [
    "p edge 3 1\ne 1 2\n",
    "pedge 3 1\ne 1 2\n",  # a `p` line that is not `p edge`
    "x 1 2\np edge 3 1\ne 1 2\n",  # a line that is not an edge line, before the header
    "p edge 3 1\ne 1 2\npedge 3 1\n",
    "p edge 3 1\ne 1 2\np edge 3 1\n",
    "e 1 2\np edge 3 1\n",
    "p edge 3 2\ne 1 2\ne 2 1\n",
    "p edge 3 1\ne 1 1\n",
    "p edge 3 1\ne 1 4\n",
    "p edge 3 1\ne 1 x 4\n",
    "p edge 3 1\ne 1\n",
    "p edge 3 1\nE 1 2\n",
    "p edge 12 1\ne 1_0 +2\n",
    "p edge 3 1 1\n",
    "p edge -1 0\n",
    "p edge 3 x\n",
    "p occ 3 1 1\n",
    "p edge 3 2\ne 1 2\n",
    "p edge 3 0\n",
    "  c indented comment\r\np edge 3 1\r\ne\t2 3 \r\n",
    "",
    "\n\n",
]
GRAPH_LINES = ["e 1 2", "e 2 3", "e 3 1", "e 1 2 3", "pedge 3 1", "p edge 3 1", "1 2", "c x", ""]


def graph_corpus(count: int = 3000, seed: int = 20261020) -> list[str]:
    """The graph hand cases, then `count` seeded documents built like `parse_corpus`'s.

    Half of the documents start with a `p edge` header that declares their
    line count, and half of the soup lines start with `e`.
    """
    rng = random.Random(seed)
    documents = list(GRAPH_HAND_CASES)
    for _ in range(count):
        lines = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.4:
                lines.append(rng.choice(GRAPH_LINES))
            else:
                tokens = [rng.choice(TOKENS) for _ in range(rng.randint(0, 3))]
                lines.append(" ".join(["e"] * (rng.random() < 0.5) + tokens))
        header = rng.choice(HEADERS) if rng.random() < 0.5 else f"p edge 3 {len(lines)}"
        documents.append(rng.choice(SEPARATORS).join([header, *lines]))
    return documents


def parse_digest(documents, parse=parse_instance, emit=emit_instance) -> str:
    """sha256 over each document's outcome: the emitted parse, or the ParseError's line and message."""
    digest = hashlib.sha256()
    for text in documents:
        try:
            outcome = emit(parse(text))
        except ParseError as err:
            outcome = repr((err.line, err.message))
        digest.update(outcome.encode() + b"\x1e")
    return digest.hexdigest()


def test_parse_outcomes_are_pinned():
    """Recorded before the parser filled the clause table directly."""
    assert parse_digest(parse_corpus()) == "42d603280e96ec2389c598f236dcfa83f0956858f73e6a10dde4bc1a2d603e29"


def test_graph_parse_outcomes_are_pinned():
    """Recorded when both formats came to share one reader."""
    digest = parse_digest(graph_corpus(), parse_graph, emit_graph)
    assert digest == "3d8a8a939a397e6178f359f5f071730054ad90e061ff052ed851d74a9e5902e1"
