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
        assert families._order(spec) == build(spec).n

    @pytest.mark.parametrize("text", ["kneser:30,20", "kneser:30,0", "pg2:1000"])
    def test_closed_form_order_leaves_rejections_to_build(self, text):
        spec = parse_family(text)
        assert families._order(spec) == 0
        with pytest.raises(UnsupportedFamilyError):
            build(spec)


class TestProfiles:
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
