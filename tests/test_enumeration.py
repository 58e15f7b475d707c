import random
import threading

import numpy as np
import pytest

from expanderlp import Graph, is_connected, regularity
from expanderlp import enumeration
from expanderlp.enumeration import (
    MAX_DRAWS,
    MAX_PAIRINGS,
    connected_cubic_graphs,
    connected_cubic_masks,
    random_connected_regular,
    random_regular_graph,
)
from oracles import cubic_graphs_brute, cubic_graphs_dfs


class TestRandomRegular:
    def test_degree_and_simplicity(self):
        rng = random.Random(11)
        for n, k in ((8, 3), (10, 3), (12, 4), (9, 4)):
            g = random_regular_graph(n, k, rng)
            assert regularity(g) == k
            assert g.n == n

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            random_regular_graph(7, 3, random.Random(0))
        with pytest.raises(ValueError):
            random_regular_graph(4, 5, random.Random(0))

    def test_connected_variant(self):
        rng = random.Random(99)
        for _ in range(10):
            g = random_connected_regular(10, 3, rng)
            assert is_connected(g)
            assert regularity(g) == 3

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 0), (2, 0), (7, 3), (6, 6), (3, -1)])
    def test_connected_variant_rejects_impossible_orders(self, n, k):
        # (4, 1) and (5, 0) used to loop forever: every draw is disconnected
        errors = []

        def draw():
            try:
                random_connected_regular(n, k, random.Random(0))
            except ValueError as exc:
                errors.append(str(exc))

        worker = threading.Thread(target=draw, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert errors == [f"no connected {k}-regular graph on {n} vertices exists"]

    def test_connected_variant_smallest_orders(self):
        assert random_connected_regular(1, 0, random.Random(0)) == Graph.from_edges(1, [])
        assert random_connected_regular(2, 1, random.Random(0)) == Graph.from_edges(2, [(0, 1)])
        assert is_connected(random_connected_regular(3, 2, random.Random(0)))

    def test_connected_variant_gives_up_after_budget(self, monkeypatch):
        draws = 0

        def never_connected(g):
            nonlocal draws
            draws += 1
            assert draws <= MAX_DRAWS, "connectivity loop ran past its budget"
            return False

        monkeypatch.setattr(enumeration, "is_connected", never_connected)
        with pytest.raises(ValueError, match=f"3-regular graph on 10 vertices in {MAX_DRAWS} draws"):
            random_connected_regular(10, 3, random.Random(0))
        assert draws == MAX_DRAWS

    def test_reproducible(self):
        a = random_regular_graph(10, 3, random.Random(5))
        b = random_regular_graph(10, 3, random.Random(5))
        assert a == b

    def test_hopeless_pairing_raises_after_budget(self):
        class CountingRandom(random.Random):
            shuffles = 0

            def shuffle(self, x):
                self.shuffles += 1
                super().shuffle(x)

        rng = CountingRandom(0)
        # a simple pairing of K_8's 56 stubs has probability about 5e-8
        with pytest.raises(ValueError, match=f"7-regular graph on 8 vertices in {MAX_PAIRINGS} attempts"):
            random_regular_graph(8, 7, rng)
        assert rng.shuffles == MAX_PAIRINGS


class TestExhaustiveCubic:
    def test_smallest_case_is_k4(self):
        graphs = list(connected_cubic_graphs(4))
        assert len(graphs) == 1
        assert graphs[0] == Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

    def test_n6_matches_bruteforce(self):
        fast = {g for g in connected_cubic_graphs(6)}
        slow = {g for g in cubic_graphs_brute(6)}
        assert len(fast) == 7
        assert fast == slow

    def test_all_outputs_valid(self):
        for g in connected_cubic_graphs(8):
            assert regularity(g) == 3
            assert is_connected(g)
            assert tuple(sorted(g.neighbors[0])) == (1, 2, 3)

    def test_n8_count(self):
        # 19355 labeled cubic graphs on 8 vertices, of which C(8,4)/2 = 35
        # split as two K_4; fixing N(0) divides the rest by C(7,3) = 35
        assert sum(1 for _ in connected_cubic_graphs(8)) == (19355 - 35) // 35

    def test_guards(self):
        with pytest.raises(ValueError):
            list(connected_cubic_graphs(5))
        with pytest.raises(ValueError):
            list(connected_cubic_graphs(12))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_order_matches_dfs(self, n):
        assert list(connected_cubic_graphs(n)) == list(cubic_graphs_dfs(n))

    @pytest.mark.parametrize("rows", [1, 7, enumeration.BLOCK_ROWS])
    def test_mask_blocks(self, monkeypatch, rows):
        monkeypatch.setattr(enumeration, "BLOCK_ROWS", rows)
        blocks = list(connected_cubic_masks(8))
        assert all(b.dtype == np.uint16 and b.ndim == 2 and b.shape[1] == 8 for b in blocks)
        assert all(1 <= len(b) <= rows for b in blocks)
        decoded = [
            Graph(8, tuple(tuple(v for v in range(8) if m >> v & 1) for m in row))
            for b in blocks
            for row in b.tolist()
        ]
        assert decoded == list(cubic_graphs_dfs(8))
