import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlp import TABLE_SPECS, Graph, Graph6Error, SizeCapError, build, parse_family, parse_graph6, write_graph6
from expanderlp.enumeration import random_regular_graph

from oracles import graph6_decode, graph6_encode, packbits_graph6


def k_n(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestKnownWords:
    def test_k5(self):
        assert write_graph6(k_n(5)) == b"D~{"
        g = parse_graph6(b"D~{")
        assert g.n == 5 and g.edge_count() == 10

    def test_single_vertex(self):
        assert write_graph6(Graph.from_edges(1, [])) == b"@"
        assert parse_graph6("@").n == 1

    def test_empty_graph(self):
        assert write_graph6(Graph.from_edges(0, [])) == b"?"
        assert parse_graph6("?").n == 0

    def test_two_vertices(self):
        assert write_graph6(Graph.from_edges(2, [])) == b"A?"
        assert write_graph6(Graph.from_edges(2, [(0, 1)])) == b"A_"
        assert parse_graph6("A_").has_edge(0, 1)

    def test_header_accepted(self):
        g = parse_graph6(b">>graph6<<D~{")
        assert g.n == 5 and g.edge_count() == 10

    def test_str_input(self):
        assert parse_graph6("D~{").n == 5


class TestSizeField:
    def test_63_vertex_prefix(self):
        word = write_graph6(Graph.from_edges(63, []))
        assert word[0:1] == b"~"
        assert len(word) == 4 + (63 * 62 // 2 + 5) // 6
        assert parse_graph6(word).n == 63

    def test_62_single_byte(self):
        word = write_graph6(Graph.from_edges(62, []))
        assert word[0] == 62 + 63

    def test_write_cap(self):
        with pytest.raises(SizeCapError):
            write_graph6(Graph.from_edges(200001, []))


class TestMalformed:
    def test_empty_input(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(b"")
        assert exc.value.offset == 0

    def test_truncated_adjacency(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(b"D~")
        assert "truncated" in str(exc.value)
        assert "byte offset" in str(exc.value)

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(b"@A")
        assert exc.value.offset == 1

    def test_truncated_size_field(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"~")
        with pytest.raises(Graph6Error):
            parse_graph6(b"~~A")

    def test_out_of_range_byte(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(b"D~\x1f")
        assert exc.value.offset == 2

    def test_out_of_range_byte_in_size_field(self):
        # "~" then three size bytes, the second of them bad
        with pytest.raises(Graph6Error, match="byte 31 outside graph6 range 63..126") as exc:
            parse_graph6(b"~?\x1f?")
        assert exc.value.offset == 2

    def test_non_ascii_str(self):
        with pytest.raises(Graph6Error, match="non-ASCII input") as exc:
            parse_graph6("D~\u00e9")
        assert exc.value.offset == 2

    def test_nonzero_padding(self):
        # n = 2 uses one bit; the remaining five must be zero
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(b"A~")
        assert "padding" in str(exc.value)

    def test_no_giant_allocation_on_lying_header(self):
        # claims ~2.6e8 vertices with no adjacency bytes; must fail fast
        with pytest.raises((Graph6Error, SizeCapError)):
            parse_graph6(b"~~~~~~~~")


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, max_n=70):
    """Graphs on 0..max_n vertices, from empty to complete; 62/63 crosses the size-field switch."""
    import random

    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from([0.0, 0.05, 0.4, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**31 - 1)))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return Graph.from_edges(n, edges)


class TestRoundTrip:
    def test_corpus(self):
        import random

        rng = random.Random(20240901)
        sizes = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 62, 63, 64, 70]
        count = 0
        for n in sizes:
            for _ in range(4):
                g = random_graph(rng, n)
                assert parse_graph6(write_graph6(g)) == g
                count += 1
        assert count >= 50

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, g):
        word = write_graph6(g)
        assert all(63 <= b <= 126 for b in word)
        assert parse_graph6(word) == g


class TestWriterBits:
    """write_graph6 sets the adjacency bits in the output bytes, one array of the word's length."""

    @pytest.mark.parametrize("spec", [str(spec) for spec in TABLE_SPECS] + ["cycle:66", "pg2:7"])
    def test_catalog_words_unchanged(self, spec):
        g = build(parse_family(spec))
        assert write_graph6(g) == packbits_graph6(g)

    @pytest.mark.parametrize("n, k, seed", [(64, 3, 7), (100, 5, 1), (512, 3, 1), (63, 4, 2)])
    def test_random_regular_words_unchanged(self, n, k, seed):
        g = random_regular_graph(n, k, random.Random(seed))
        assert write_graph6(g) == packbits_graph6(g)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_random_words_unchanged(self, g):
        assert write_graph6(g) == packbits_graph6(g)

    def test_memory_is_the_word_not_the_bits(self):
        # cycle:20000 has a 33 MB word over 2e8 bits: the peak is the word's
        # array, the bytes copied out of it and a few index arrays per edge,
        # where one byte per bit took 6 times the word
        g = build(parse_family("cycle:20000"))
        tracemalloc.start()
        try:
            word = write_graph6(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(word) == 4 + (20000 * 19999 // 2 + 5) // 6
        assert peak < 2 * len(word) + 64 * g.n


@st.composite
def mangled_words(draw):
    """Valid words with one byte replaced, inserted or dropped, one bit flipped, or cut short.

    A flipped bit of the last byte sets a padding bit whenever the
    adjacency bits do not fill that byte.
    """
    word = bytearray(graph6_encode(draw(graphs())))
    pos = draw(st.integers(0, len(word)))
    byte = draw(st.one_of(st.integers(63, 126), st.sampled_from([62, 127]), st.integers(0, 255)))
    edit = draw(st.sampled_from(["replace", "insert", "drop", "flip", "flip-last", "cut"]))
    if edit == "flip-last":
        edit, pos = "flip", len(word) - 1
    if edit == "replace" and pos < len(word):
        word[pos] = byte
    elif edit == "flip" and pos < len(word):
        word[pos] = ((word[pos] - 63) ^ (1 << draw(st.integers(0, 5)))) + 63
    elif edit == "insert":
        word.insert(pos, byte)
    elif edit == "drop" and pos < len(word):
        del word[pos]
    elif edit == "cut":
        del word[pos:]
    header = draw(st.booleans())
    return (b">>graph6<<" if header else b"") + bytes(word)


def outcome(parse, data):
    """The Graph a parser returns, or the message and offset of its Graph6Error."""
    try:
        return parse(data)
    except Graph6Error as exc:
        return (str(exc), exc.offset)


class TestAgainstOracle:
    """parse_graph6 and write_graph6 against the bit-at-a-time codec in tests/oracles.py."""

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_writer_matches_oracle(self, g):
        assert write_graph6(g) == graph6_encode(g)

    @given(graphs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_parser_matches_oracle_on_valid_words(self, g, header):
        word = (b">>graph6<<" if header else b"") + graph6_encode(g)
        assert parse_graph6(word) == graph6_decode(word) == g

    @given(st.one_of(st.binary(max_size=24), mangled_words()))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_bytes_match_oracle(self, data):
        # a Graph equal to the oracle's, or the oracle's message and offset;
        # any other exception fails the test
        assert outcome(parse_graph6, data) == outcome(graph6_decode, data)

    @pytest.mark.parametrize(
        "word", [b"D~\x7f", b"D~>", b"A~", b"AO", b"D~{A", b"~~A", b"D~", b"~?A", b"~~?????A", b"?A", b""]
    )
    def test_malformed_examples_match_oracle(self, word):
        assert isinstance(outcome(parse_graph6, word), tuple)
        assert outcome(parse_graph6, word) == outcome(graph6_decode, word)
