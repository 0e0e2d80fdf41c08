"""Both file parsers on arbitrary text: every input parses or raises ParseError.

The token soup mixes well-formed pieces of either format (headers,
`q=` prefixes, edge lines, the `0` terminator) with the spellings that
int() and str.split() accept or reject in surprising ways: `-0`, `1_0`,
20-digit numbers, NUL, CR, a non-breaking space, a Unicode line
separator and a non-ASCII digit. Parsed instances are not reduced here:
a header may declare an n whose parity rows could not be allocated.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsat_reduce.errors import ParseError
from xorsat_reduce.hamcycle import parse_graph
from xorsat_reduce.instances import parse_instance

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
