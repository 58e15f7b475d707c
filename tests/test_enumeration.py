import functools
import hashlib
import random
import threading
import tracemalloc

import numpy as np
import pytest

from expanderlp import Graph, is_connected, regularity
from expanderlp import enumeration
from expanderlp.enumeration import (
    MAX_DRAWS,
    MAX_PAIRINGS,
    connected_cubic_graphs,
    connected_cubic_masks,
    cubic_masks,
    random_connected_regular,
    random_regular_graph,
)
from oracles import cubic_graphs_brute, cubic_graphs_dfs, masks_connected

dfs_graphs = functools.cache(lambda n: list(cubic_graphs_dfs(n)))


def decode(n, blocks):
    return [
        Graph(n, tuple(tuple(v for v in range(n) if m >> v & 1) for m in row))
        for b in blocks
        for row in b.tolist()
    ]


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
        assert all(len(b) == rows for b in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= rows
        assert decode(8, blocks) == dfs_graphs(8)

    @pytest.mark.parametrize("rows", [1, 7, enumeration.BLOCK_ROWS])
    @pytest.mark.parametrize("n, tail", [(n, t) for n in (4, 6, 8) for t in range(1, 3 * n // 2 - 2)])
    def test_every_cut_matches_dfs(self, monkeypatch, n, tail, rows):
        # completing from residuals at any depth gives the leaves of the plain
        # depth-first search, in its order.  A residual that ignores u's
        # saturated neighbours above u fails at n = 8 with tail 1 to 3 only
        monkeypatch.setattr(enumeration, "BLOCK_ROWS", rows)
        monkeypatch.setattr(enumeration, "TAIL_EDGES", tail)
        assert decode(n, connected_cubic_masks(n)) == dfs_graphs(n)

    def test_memo_lives_in_one_call(self):
        # two enumerations in step share no state
        pairs = zip(connected_cubic_masks(8), connected_cubic_masks(8), strict=True)
        assert all((a == b).all() for a, b in pairs)

    def test_n10_blocks_are_full(self):
        sizes = [len(b) for b in connected_cubic_masks(10)]
        assert sum(sizes) == 132930
        assert len(sizes) == -(-132930 // enumeration.BLOCK_ROWS)

    @pytest.mark.parametrize("n, digest", [
        (8, "4a1289c9c06982c190037a38e76633e18af74eba5e585841da1ec52be0ee6efc"),
        (10, "b1f85d4be55e930ab62d70dbfbdece65ceb31f02becbf5dc1f0c02c52965ff0c"),
    ])
    def test_mask_order_pinned(self, n, digest):
        # SHA-256 of the blocks, concatenated as little-endian uint16
        sha = hashlib.sha256()
        for block in connected_cubic_masks(n):
            sha.update(block.astype("<u2").tobytes())
        assert sha.hexdigest() == digest

    def test_expanded_chunks_are_bounded(self, monkeypatch):
        sizes = []
        children = enumeration._children

        def counted(masks, deg):
            sizes.append(len(masks))
            return children(masks, deg)

        monkeypatch.setattr(enumeration, "_children", counted)
        assert sum(len(b) for b in connected_cubic_masks(10)) == 132930
        assert max(sizes) <= 2 * enumeration.BLOCK_ROWS - 1

    def test_n10_expands_each_residual_once(self, monkeypatch):
        # a descent to the leaves hands _children 888,542 rows; completing
        # each of the 1250 residuals once, 38,732
        rows = 0
        children = enumeration._children

        def counted(masks, deg):
            nonlocal rows
            rows += len(masks)
            return children(masks, deg)

        monkeypatch.setattr(enumeration, "_children", counted)
        assert sum(len(b) for b in connected_cubic_masks(10)) == 132930
        assert rows <= 100_000

    def test_n10_memory(self):
        # a descent to the leaves that held degree rows at every depth peaked
        # at 0.98 MB; the memo must not add to that
        list(connected_cubic_masks(6))
        tracemalloc.start()
        try:
            for _ in connected_cubic_masks(10):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCubicMasks:
    @pytest.mark.parametrize("n, removed", [(4, 0), (6, 0), (8, 1), (10, 175)])
    def test_connected_rows_are_connected_cubic_masks(self, n, removed):
        blocks = list(cubic_masks(n))
        assert all(b.dtype == np.uint16 and b.ndim == 2 and b.shape[1] == n for b in blocks)
        assert all(1 <= len(b) <= enumeration.BLOCK_ROWS for b in blocks)
        rows = np.concatenate(blocks)
        connected = masks_connected(rows)
        assert np.count_nonzero(~connected) == removed
        assert np.array_equal(rows[connected], np.concatenate(list(connected_cubic_masks(n))))

    def test_n8_removes_two_k4(self):
        rows = np.concatenate(list(cubic_masks(8)))
        k4 = [(u, w) for u in range(4) for w in range(u + 1, 4)]
        two_k4 = Graph.from_edges(8, k4 + [(u + 4, w + 4) for u, w in k4])
        assert decode(8, [rows[~masks_connected(rows)]]) == [two_k4]

    def test_short_blocks(self, monkeypatch):
        monkeypatch.setattr(enumeration, "BLOCK_ROWS", 7)
        blocks = list(cubic_masks(8))
        assert all(1 <= len(b) <= 7 for b in blocks)
        rows = np.concatenate(blocks)
        assert decode(8, [rows[masks_connected(rows)]]) == dfs_graphs(8)
