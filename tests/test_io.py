"""graph6 / edge-list serialization, cross-checked against networkx."""

import itertools
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecount import io
from cyclecount.constructions import petersen, random_graph
from cyclecount.graph import from_edge_list


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                 else st.just([]))
    return from_edge_list(n, picks)


def _nx_graph6(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


@given(graphs())
def test_graph6_round_trip(g):
    assert io.from_graph6(io.to_graph6(g)) == g


@given(graphs())
def test_graph6_matches_networkx(g):
    assert io.to_graph6(g) == _nx_graph6(g)


def test_graph6_long_form_above_62_vertices():
    g = random_graph(70, 0.1, 17)
    enc = io.to_graph6(g)
    assert enc.startswith(chr(126))
    assert enc == _nx_graph6(g)
    assert io.from_graph6(enc) == g


def test_graph6_header_variants():
    g = petersen()
    bare = io.to_graph6(g)
    assert io.from_graph6(">>graph6<<" + bare) == g
    assert io.from_graph6(bare + "\n") == g


@settings(deadline=None, max_examples=40)
@given(
    st.one_of(st.integers(min_value=1, max_value=62),
              st.integers(min_value=63, max_value=300)),
    st.sampled_from([0.0, 0.05, 0.5, 0.95]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_graph6_decoder_matches_networkx(n, p, seed):
    # networkx encodes and decodes, in the short (n <= 62) and the long size form
    text = nx.to_graph6_bytes(nx.gnp_random_graph(n, p, seed=seed), header=False).strip()
    want = nx.from_graph6_bytes(text)
    assert io.from_graph6(text.decode()) == from_edge_list(n, want.edges())


@pytest.mark.parametrize("text,message", [
    ("B\u00e9", "graph6 characters outside the 6-bit range"),
    ("B\x7f", "graph6 characters outside the 6-bit range"),
    ("~~??????", "graph6 long form (n > 258047) not supported"),
    ("~??", "truncated graph6 size field"),
    # n = 63: 1953 bits in 326 groups, and the last of the 3 padding bits set
    ("~??~" + "?" * 325 + chr(63 + 1), "nonzero padding bits in graph6 body"),
    ("D?", "graph6 body has 1 groups, expected 2 for n=5"),
    ("D???", "graph6 body has 3 groups, expected 2 for n=5"),
])
def test_graph6_rejection_messages(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        io.from_graph6(text)


def test_graph6_refuses_order_before_reading_body():
    # a long-form header for n = 65,537 and no body: the order is refused
    # as soon as it is read, before the body length is looked at
    n = 65_537
    header = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    with pytest.raises(ValueError, match="outside"):
        io.from_graph6(header)


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        io.from_graph6("")
    with pytest.raises(ValueError):
        io.from_graph6("B\x01")  # byte below printable graph6 range
    with pytest.raises(ValueError):
        # n=3 uses 3 of 6 data bits; the trailing padding bits must be zero
        io.from_graph6("B" + chr(63 + 0b000111))
    with pytest.raises(ValueError):
        io.from_graph6("B")  # truncated: data byte missing


@given(graphs())
def test_edge_list_round_trip(g):
    text = io.to_edge_list_text(g)
    assert io.from_edge_list_text(text) == g
    first = text.splitlines()[0].split()
    assert [int(first[0]), int(first[1])] == [g.n, g.num_edges]


def test_edge_list_rejects_count_mismatch():
    with pytest.raises(ValueError):
        io.from_edge_list_text("3 2\n0 1\n")


@given(graphs())
def test_loads_autodetects_both_formats(g):
    assert io.loads(io.to_graph6(g)) == g
    assert io.loads(io.to_edge_list_text(g)) == g
