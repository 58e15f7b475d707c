import hashlib
import time

import numpy as np
import pytest

from expanderlp import (
    FamilySpec,
    TABLE_SPECS,
    UnsupportedFamilyError,
    build,
    expected_profile,
    girth_bfs,
    is_connected,
    parse_family,
    regularity,
    spectrum,
    write_graph6,
)
from expanderlp import families
from oracles import is_bipartite


class TestParse:
    def test_no_params(self):
        assert parse_family("petersen") == FamilySpec("petersen")
        assert parse_family("clebsch") == FamilySpec("clebsch", ())

    def test_with_params(self):
        assert parse_family("cycle:5") == FamilySpec("cycle", (5,))
        assert parse_family("kneser:7,3") == FamilySpec("kneser", (7, 3))

    def test_round_trip_str(self):
        for text in ("petersen", "cycle:5", "kneser:7,3", "pg2:4"):
            assert str(parse_family(text)) == text

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            parse_family("dodecahedron")

    def test_wrong_arity(self):
        with pytest.raises(UnsupportedFamilyError):
            parse_family("cycle")
        with pytest.raises(UnsupportedFamilyError):
            parse_family("petersen:3")
        with pytest.raises(UnsupportedFamilyError):
            parse_family("kneser:7")

    def test_bad_number(self):
        with pytest.raises(UnsupportedFamilyError):
            parse_family("cycle:x")


class TestBuildValidation:
    def test_cycle_min_girth(self):
        with pytest.raises(UnsupportedFamilyError):
            build(FamilySpec("cycle", (2,)))

    def test_pg2_supported_orders(self):
        for q in (2, 3, 4, 5, 7, 8):
            g = build(FamilySpec("pg2", (q,)))
            n = q * q + q + 1
            assert g.n == 2 * n
        with pytest.raises(UnsupportedFamilyError):
            build(FamilySpec("pg2", (6,)))
        with pytest.raises(UnsupportedFamilyError):
            build(FamilySpec("pg2", (9,)))

    def test_gq_only_order_two(self):
        assert build(FamilySpec("gq", (2,))).n == 30
        with pytest.raises(UnsupportedFamilyError):
            build(FamilySpec("gq", (3,)))

    def test_kneser_range(self):
        with pytest.raises(UnsupportedFamilyError):
            build(FamilySpec("kneser", (4, 3)))

    @pytest.mark.parametrize("text, match", [
        ("complete:0", "complete graph needs n >= 1, got 0"),
        ("complete_bipartite:0", "complete bipartite half-size must be >= 1, got 0"),
    ])
    def test_empty_members_rejected(self, text, match):
        with pytest.raises(UnsupportedFamilyError, match=match):
            build(parse_family(text))

    def test_unvalidated_spec_rejected(self):
        with pytest.raises(UnsupportedFamilyError, match="unknown family 'dodecahedron'"):
            build(FamilySpec("dodecahedron"))
        with pytest.raises(UnsupportedFamilyError, match="wrong parameter count for 'cycle'"):
            build(FamilySpec("cycle", (5, 6)))

    def test_plane_axiom_checked(self, monkeypatch):
        # Z/4 is a ring, not a field: its "plane" breaks N N^T = qI + J
        def ring(q):
            x = np.arange(q)
            return (x[:, None] + x) % q, (x[:, None] * x) % q

        monkeypatch.setattr(families, "_field", ring)
        with pytest.raises(RuntimeError, match="incidence axiom violated for points"):
            build(FamilySpec("pg2", (4,)))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
    def test_field_tables(self, q):
        add, mul = families._field(q)
        x = np.arange(q)
        assert (add[0] == x).all() and (mul[1] == x).all()
        # every element has a negative and every nonzero one an inverse
        assert ((add == 0).sum(axis=1) == 1).all()
        assert ((mul[1:, 1:] == 1).sum(axis=1) == 1).all()
        # mul distributes over add: a(b + c) = ab + ac
        assert (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all()

    def test_kneser_near_write_cap_in_bounded_time(self):
        start = time.perf_counter()
        g = build(FamilySpec("kneser", (17, 8)))
        elapsed = time.perf_counter() - start
        assert g.n == 24310
        assert regularity(g) == 9
        assert elapsed < 5.0, elapsed

    def test_kneser_5_2_is_petersen_profile(self):
        g = build(FamilySpec("kneser", (5, 2)))
        assert g.n == 10
        assert regularity(g) == 3
        assert girth_bfs(g) == 5

    @pytest.mark.parametrize("text", [str(spec) for spec in TABLE_SPECS] + [
        "cycle:18", "complete:1", "complete:9", "complete_bipartite:1", "kneser:5,2", "kneser:9,4",
        "pg2:5", "pg2:7", "pg2:8",
    ])
    def test_closed_form_order(self, text):
        spec = parse_family(text)
        g = build(spec)
        assert families._order(spec) == (g.n, regularity(g))

    @pytest.mark.parametrize("text", [
        "kneser:30,20", "kneser:30,0", "pg2:1000", "complete:-100000", "complete_bipartite:-100000",
    ])
    def test_closed_form_order_leaves_rejections_to_build(self, text):
        spec = parse_family(text)
        assert families._order(spec) == (0, 0)
        with pytest.raises(UnsupportedFamilyError):
            build(spec)


class TestProfiles:
    @pytest.mark.parametrize("text, match", [
        ("cycle:2", "cycle length must be >= 3, got 2"),
        ("complete:2", "profile needs a complete graph on >= 3 vertices, got 2"),
        ("complete_bipartite:1", "profile needs half-size >= 2, got 1"),
        ("pg2:6", "projective plane order must be one of"),
        ("gq:3", "only the order-2 generalized quadrangle is shipped"),
        ("kneser:6,2", "no profile for kneser:6,2"),
    ])
    def test_rejections(self, text, match):
        with pytest.raises(UnsupportedFamilyError, match=match):
            expected_profile(parse_family(text))

    @pytest.mark.parametrize("g", [6, 18])
    def test_even_cycle(self, g):
        spec = FamilySpec("cycle", (g,))
        prof = expected_profile(spec)
        assert prof.spectrum[-1] == (-2.0, 1)
        measured = spectrum(build(spec))
        assert [m for _, m in measured.entries] == [m for _, m in prof.spectrum]
        for (me, _), (ee, _) in zip(measured.entries, prof.spectrum):
            assert me == pytest.approx(ee, abs=1e-8)

    def test_table_families_match(self):
        for spec in TABLE_SPECS:
            g = build(spec)
            prof = expected_profile(spec)
            assert g.n == prof.v, spec
            assert regularity(g) == prof.k, spec
            assert is_connected(g), spec
            assert girth_bfs(g) == prof.girth, spec
            measured = spectrum(g)
            assert len(measured.entries) == len(prof.spectrum), spec
            for (me, mm), (ee, em) in zip(measured.entries, prof.spectrum):
                assert me == pytest.approx(float(ee), abs=1e-8), spec
                assert mm == em, spec

    def test_extra_pg2_orders(self):
        import math

        for q in (5, 7, 8):
            spec = FamilySpec("pg2", (q,))
            g = build(spec)
            prof = expected_profile(spec)
            assert g.n == prof.v
            assert girth_bfs(g) == 6
            measured = spectrum(g)
            expected_eigs = [q + 1, math.sqrt(q), -math.sqrt(q), -(q + 1)]
            assert [m for _, m in measured.entries] == [1, q * q + q, q * q + q, 1]
            for (me, _), ee in zip(measured.entries, expected_eigs):
                assert me == pytest.approx(ee, abs=1e-8)

    def test_table_has_twelve_rows(self):
        assert len(TABLE_SPECS) == 12
        assert [str(s) for s in TABLE_SPECS] == [
            "cycle:5",
            "cycle:7",
            "complete:4",
            "complete_bipartite:3",
            "pg2:2",
            "pg2:3",
            "pg2:4",
            "gq:2",
            "petersen",
            "hoffman_singleton",
            "kneser:7,3",
            "clebsch",
        ]


class TestStructure:
    def test_incidence_graphs_bipartite(self):
        for text in ("pg2:2", "pg2:3", "pg2:4", "gq:2", "complete_bipartite:3"):
            assert is_bipartite(build(parse_family(text))), text

    def test_petersen_not_bipartite(self):
        assert not is_bipartite(build(parse_family("petersen")))

    # SHA-256 of the graph6 words: any rewrite of a builder keeps its vertex numbering
    @pytest.mark.parametrize("text, digest", [
        ("gq:2", "de75d1aedf45a19a9b34caeda6339804154a66e1080ecb367fb0baf4b26d91e4"),
        ("clebsch", "f74bf9133c90a25b2b072d8dcedfaa7405fadab8277dfed52394e8a09dfe081b"),
        ("pg2:5", "ea5bdc582587e4a181eef37529fa5b0517a3368b276f71bf81272fec70b6a153"),
        ("pg2:7", "7f825c9cab2ceddd18c75916bbbcfd727a901f13a5ec015209f8efa8207afc4d"),
        ("pg2:8", "5ba6bebc5899a987bcfcc8a337a0ee923a85c991968ff35cc04d961abb696a4d"),
        ("kneser:6,3", "7a1eaac3353322902dbab1afd020a00c77a13500ac84007758b0f9d64ec7a254"),
        ("kneser:7,2", "3d337618d17cd1bf555198dccd63926e9e352fee857d63a8589c1d3f1c550a9a"),
        ("kneser:8,3", "bf0cf8d3e5acfa5b1547c599baa14b1f17968b193295a48b61534062de05a40b"),
        ("kneser:9,4", "f8bff4f9cbbaa7c05d8d05ae88b9a647b62725284859bcbdfbe1d69a25d8ed74"),
        ("kneser:11,5", "59e7e953b984e8cadac559112f0e1a902c0a9cbbfd491ca70aa7e1e472fda359"),
    ])
    def test_vertex_numbering_pinned(self, text, digest):
        assert hashlib.sha256(write_graph6(build(parse_family(text)))).hexdigest() == digest

    def test_determinism(self):
        for text in ("petersen", "pg2:3", "gq:2", "hoffman_singleton", "kneser:7,3"):
            a = write_graph6(build(parse_family(text)))
            b = write_graph6(build(parse_family(text)))
            assert a == b, text

    def test_hoffman_singleton_local(self):
        g = build(parse_family("hoffman_singleton"))
        assert g.n == 50
        assert regularity(g) == 7
        assert girth_bfs(g) == 5
        # neighbors of adjacent vertices are disjoint (no triangles),
        # non-adjacent vertices share exactly one neighbor (diameter 2, moore)
        for u in range(0, 50, 7):
            for w in range(u + 1, 50, 11):
                common = len(set(g.neighbors[u]) & set(g.neighbors[w]))
                if g.has_edge(u, w):
                    assert common == 0
                else:
                    assert common == 1

    def test_clebsch_structure(self):
        g = build(parse_family("clebsch"))
        assert g.n == 16
        assert regularity(g) == 5
        assert girth_bfs(g) == 4
