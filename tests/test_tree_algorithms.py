import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_alpha,
    brute_gamma,
    enumerate_trees,
    label_partition_oracle,
    part_not_a_star_oracle,
    prufer_decode,
    prufer_tree,
    star_partition_weight_oracle,
    tree_canonical_key,
    validate_star_partition,
    weak_partition_dp_oracle,
)
from swapsets import (
    ConstructionError,
    ContractError,
    DdmResult,
    FINITE,
    Graph,
    INFINITE,
    StarPartition,
    analyse_tree,
    cycle_graph,
    dd_m_exact,
    dd_m_tree,
    domination_number,
    hat_graph,
    independence_number,
    is_weak_tree,
    path_graph,
    s_weight,
    star_graph,
    tree_algorithms,
    tree_product_swap,
    verify_certificate,
    weak_reduction,
)
from swapsets.graph_core import bfs_tree
from swapsets.tree_algorithms import _rooted, _weak_partition_dp


def count_walks(monkeypatch) -> list[int]:
    """Count `bfs_tree` walks in every swapsets module that binds it; the
    returned list gets the order of each walked graph."""
    walks = []

    def counted(g):
        walks.append(g.n)
        return bfs_tree(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "swapsets" and getattr(module, "bfs_tree", None) is bfs_tree:
            monkeypatch.setattr(module, "bfs_tree", counted)
    return walks


def random_trees(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v)
                 for v in range(1, n)]
        return Graph(n, edges)

    return build()


def narrow_trees(max_n=60):
    """Random trees whose vertex v hangs from one of v-3..v-1: long and
    thin, where random_trees are shallow and bushy."""
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        edges = [(draw(st.integers(min_value=max(0, v - 3), max_value=v - 1)), v)
                 for v in range(1, n)]
        return Graph(n, edges)

    return build()


def spider(*legs):
    """Center 0 with one path per leg length."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


class TestWeakness:
    def test_paths_are_weak_except_p3(self):
        assert is_weak_tree(path_graph(2))
        assert not is_weak_tree(path_graph(3))
        assert all(is_weak_tree(path_graph(n)) for n in range(4, 9))

    def test_stars_are_strong(self):
        assert all(not is_weak_tree(star_graph(k)) for k in range(2, 6))

    def test_non_tree_rejected(self):
        with pytest.raises(ContractError):
            is_weak_tree(cycle_graph(4))


class TestWeakReduction:
    def test_weak_tree_unchanged(self):
        red = weak_reduction(path_graph(6))
        assert red.removed == () and red.reduced == path_graph(6)

    def test_star_reduces_to_edge(self):
        red = weak_reduction(star_graph(4))
        assert red.reduced.n == 2
        assert len(red.removed) == 3
        assert all(stem == 0 for stem, _ in red.removed)

    def test_removed_are_leaf_edges(self):
        t = spider(1, 1, 2, 2)  # center 0 holds two one-edge legs: strong stem
        red = weak_reduction(t)
        assert len(red.removed) == 1
        stem, leaf = red.removed[0]
        assert stem == 0 and t.degree(leaf) == 1
        assert is_weak_tree(red.reduced)

    def test_embedding_maps_back(self):
        t = star_graph(3)
        red = weak_reduction(t)
        kept = set(red.embedding)
        dropped = {leaf for _, leaf in red.removed}
        assert kept | dropped == set(range(t.n))
        assert kept & dropped == set()

    def test_reductions_stay_weak(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                assert is_weak_tree(weak_reduction(t).reduced)


class TestSWeight:
    @pytest.mark.parametrize("t,weight", [
        (path_graph(2), 1),
        (path_graph(3), 2),
        (path_graph(4), 2),
        (path_graph(5), 2),
        (path_graph(6), 3),
        (star_graph(3), 3),
        (spider(1, 2, 2), 3),
    ])
    def test_known_weights(self, t, weight):
        assert s_weight(t)[0] == weight

    def test_partition_is_valid(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                weight, partition = s_weight(t)
                assert validate_star_partition(t, partition) == ()
                assert partition.weight == weight

    def test_matches_both_oracles(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                w = s_weight(t)[0]
                assert w == star_partition_weight_oracle(t)

    def test_additive_over_reduction(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                red = weak_reduction(t)
                assert s_weight(t)[0] == s_weight(red.reduced)[0] + len(red.removed)

    def test_trivial_tree_rejected(self):
        with pytest.raises(ContractError):
            s_weight(Graph(1, []))


class TestPartitionDpOracle:
    """The flat-array DP returns the very (weight, parts) of the dict-based
    DP it replaced, part order and tie-breaks included."""

    @staticmethod
    def assert_agrees(t):
        reduced = weak_reduction(t).reduced
        if reduced.n >= 2:
            assert (_weak_partition_dp(reduced, _rooted(reduced))[:2]
                    == weak_partition_dp_oracle(reduced))

    @pytest.mark.parametrize("t", [star_graph(3), spider(1, 1, 2), path_graph(3)],
                             ids=["k13", "spider", "p3"])
    def test_strong_walk_rejected(self, t):
        # a stem with two leaves has no feasible state, so no partition is
        # found, whether that stem is the root or the root is one of its leaves
        with pytest.raises(ConstructionError):
            _weak_partition_dp(t, _rooted(t))

    def test_all_small_trees(self):
        for n in range(2, 11):
            for t in enumerate_trees(n):
                self.assert_agrees(t)

    def test_hat_paths(self):
        for k in range(1, 201):
            self.assert_agrees(hat_graph(path_graph(k)))

    @settings(derandomize=True, max_examples=200)
    @given(random_trees(max_n=40) | narrow_trees())
    def test_random_trees(self, t):
        self.assert_agrees(t)

    def test_large_random_tree(self):
        rng = random.Random(3000)
        self.assert_agrees(Graph(3000, [(rng.randrange(max(0, v - 3), v), v)
                                        for v in range(1, 3000)]))


def reduce_then_solve(t):
    """The `tree` payload of t built the long way: relabel its weak
    reduction T' into a Graph of its own, solve T' as the weak tree it is,
    then map the parts back through the embedding and hand each stem its
    stripped leaves."""
    red = weak_reduction(t)
    solved = analyse_tree(red.reduced)
    extra = {}
    for stem, leaf in red.removed:
        extra.setdefault(stem, []).append(leaf)
    raw = []
    for c, leaves in solved.partition.parts:
        members = [red.embedding[v] for v in (c, *leaves)]
        stem = next((v for v in members if v in extra), members[0])
        raw.append((stem, [v for v in members if v != stem] + extra.get(stem, [])))
    partition = StarPartition.build(raw)
    weak = not red.removed
    return partition, {
        "n": t.n,
        "is_weak": weak,
        "s_weight": partition.weight,
        "partition": partition.to_json_dict(),
        "reduction_removed": len(red.removed),
        "result": (solved.result if weak else DdmResult(INFINITE)).to_json_dict(),
        "gamma_equals_alpha": weak and solved.four_way_equality,
        "alpha_equals_swap_number": weak and 2 * partition.weight == t.n,
        "alpha_equals_eviction": 2 * solved.partition.weight == red.reduced.n,
    }


class TestInPlaceReduction:
    """analyse_tree solves a strong tree's weak reduction on the tree
    itself; it must give what relabelling and solving the reduction gives."""

    @staticmethod
    def assert_agrees(t):
        partition, payload = reduce_then_solve(t)
        got = analyse_tree(t)
        assert got.partition == partition
        assert got.partition.weight == partition.weight == s_weight(t)[0]
        assert got.to_json_dict() == payload

    def test_all_small_trees(self):
        for n in range(2, 13):
            for t in enumerate_trees(n):
                self.assert_agrees(t)

    def test_stars_centred_anywhere(self):
        for k in range(2, 7):
            for centre in range(k + 1):
                edges = [(min(centre, v), max(centre, v)) for v in range(k + 1) if v != centre]
                t = Graph(k + 1, edges)
                self.assert_agrees(t)
                assert analyse_tree(t).partition.parts == (
                    (centre, tuple(v for v in range(k + 1) if v != centre)),)

    def test_seeded_pruefer_trees(self):
        rng = random.Random(22)
        for _ in range(200):
            self.assert_agrees(prufer_tree(rng.randint(2, 2000), rng))


class TestStarPartitionShape:
    def test_validator_catches_overlap(self):
        t = path_graph(4)
        bad = StarPartition.build([(0, [1]), (1, [2]), (3, [])])
        assert any(v.startswith("vertex-in-two-parts") for v in validate_star_partition(t, bad))

    def test_validator_catches_unpaired_weak_stem(self):
        t = path_graph(4)
        bad = StarPartition.build([(1, [0, 2]), (3, [])])
        assert any(v.startswith("weak-stem-not-paired") for v in validate_star_partition(t, bad))

    def test_validator_catches_lonely_singleton(self):
        t = path_graph(3)
        bad = StarPartition.build([(0, [1]), (2, [])])
        assert any(v.startswith("k1-part-undersupported") for v in validate_star_partition(t, bad))


    def test_star_check_matches_pairwise_oracle(self):
        # random partitions of random trees, most of them invalid: leaves in
        # any order, repeated, adjacent to each other or missing altogether
        rng = random.Random(7)
        for _ in range(400):
            n = rng.randint(2, 14)
            t = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
            vertices = list(range(n))
            rng.shuffle(vertices)
            parts = []
            while vertices:
                group = [vertices.pop() for _ in range(min(len(vertices), rng.randint(1, 6)))]
                group += rng.sample(range(n), rng.randint(0, 2))
                parts.append((group[0], tuple(group[1:])))
            p = StarPartition(tuple(parts), rng.randint(0, n))
            found = [x for x in validate_star_partition(t, p)
                     if x.startswith("part-not-a-star")]
            assert found == part_not_a_star_oracle(t, p)

    def test_validation_is_linear_on_a_wide_star(self, monkeypatch):
        t = star_graph(4000)
        _, partition = s_weight(t)
        calls = []
        real = Graph.has_edge

        def counted(self, u, v):
            calls.append(1)
            return real(self, u, v)

        monkeypatch.setattr(Graph, "has_edge", counted)
        assert validate_star_partition(t, partition) == ()
        assert len(calls) <= t.n + len(t.edges)


class TestSwapFromPartition:
    """The DP's traceback labels the certificate as the second pass over
    the finished partition that it replaced did."""

    @staticmethod
    def assert_agrees(t):
        analysis = analyse_tree(t)
        cert = analysis.result.certificate
        assert cert == label_partition_oracle(t, analysis.partition, _rooted(t))
        assert verify_certificate(t, cert)
        assert cert.size() == analysis.partition.weight

    def test_certificates_verify_at_weight(self):
        for n in range(2, 13):
            for t in enumerate_trees(n):
                if is_weak_tree(t):
                    self.assert_agrees(t)

    def test_every_labelled_tree(self):
        # tie-breaks depend on vertex labels, and enumerate_trees gives one
        # labelling per class: decode every Prüfer sequence instead
        count = 0
        for n in range(2, 8):
            for seq in product(range(n), repeat=n - 2):
                t = prufer_decode(n, seq)
                TestPartitionDpOracle.assert_agrees(t)
                if is_weak_tree(t):
                    self.assert_agrees(t)
                count += 1
        assert count == 18_248

    def test_labelling_is_linear(self, monkeypatch):
        # a uniform random labelled tree from a walk on the complete graph
        # (Aldous-Broder); its weak reduction has thousands of K1 parts, each
        # of which must see both labels
        n = 24_000
        rng = random.Random(12)
        seen = [True] + [False] * (n - 1)
        edges = []
        u = 0
        while len(edges) < n - 1:
            v = rng.randrange(n)
            if not seen[v]:
                seen[v] = True
                edges.append((u, v))
            u = v
        t = weak_reduction(Graph(n, edges)).reduced
        assert t.n >= 20_000 and is_weak_tree(t)
        calls = []
        real = Graph.neighbors

        def counted(self, v):
            calls.append(1)
            return real(self, v)

        monkeypatch.setattr(Graph, "neighbors", counted)
        analysis = analyse_tree(t)
        assert len(calls) <= 2 * t.n
        monkeypatch.undo()
        assert any(not leaves for _, leaves in analysis.partition.parts)
        self.assert_agrees(t)


class TestDdmTree:
    @pytest.mark.parametrize("t,expected", [
        (path_graph(2), 1),
        (path_graph(4), 2),
        (path_graph(6), 3),
        (spider(1, 2, 2), 3),
        (star_graph(3), None),
        (path_graph(3), None),
    ])
    def test_known_values(self, t, expected):
        result = dd_m_tree(t)
        if expected is None:
            assert result.status == INFINITE
        else:
            assert result.status == FINITE and result.k == expected
            assert verify_certificate(t, result.certificate)

    def test_agrees_with_exact_solver(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                fast = dd_m_tree(t)
                slow = dd_m_exact(t)
                assert fast.status == slow.status
                if fast.status == FINITE:
                    assert fast.k == slow.k

    def test_swap_set_exists_iff_weak(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                assert (dd_m_tree(t).status == FINITE) == is_weak_tree(t)

    @settings(derandomize=True, max_examples=40)
    @given(random_trees())
    def test_random_trees_property(self, t):
        result = dd_m_tree(t)
        assert result.status == dd_m_exact(t).status
        if result.status == FINITE:
            assert verify_certificate(t, result.certificate)
            assert result.k == s_weight(t)[0]

    def test_deep_hat_path_within_recursion_limit(self):
        t = hat_graph(path_graph(3000))
        result = dd_m_tree(t)
        assert result.status == FINITE and result.k == 3000
        assert verify_certificate(t, result.certificate)

    def test_deep_path_within_recursion_limit(self):
        t = path_graph(3000)
        result = dd_m_tree(t)
        assert result.status == FINITE
        assert verify_certificate(t, result.certificate)


# vertex 5 has three leaves, so the reduction drops two and relabels the rest
STRONG_TREE = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (5, 8)])


class TestOneWalkPerTree:
    """The walk that checks a tree also roots it for the partition DP and
    the labelling; a strong tree's weak reduction is solved in place, on
    the same walk."""

    @pytest.mark.parametrize("solve,weak_walks,strong_walks", [
        (analyse_tree, 1, 1),
        (dd_m_tree, 1, 1),
        (s_weight, 1, 1),
    ])
    def test_walks_per_call(self, monkeypatch, solve, weak_walks, strong_walks):
        weak = hat_graph(path_graph(40))
        walks = count_walks(monkeypatch)
        solve(weak)
        assert walks == [weak.n] * weak_walks
        walks.clear()
        solve(STRONG_TREE)
        assert walks == [9, 7][:strong_walks]

    @pytest.mark.parametrize("solve", [analyse_tree, s_weight])
    def test_strong_tree_builds_no_graph(self, monkeypatch, solve):
        t = prufer_tree(300, random.Random(5))
        assert not is_weak_tree(t)
        built = []
        real = Graph.__init__

        def counted(self, n, edges):
            built.append(n)
            real(self, n, edges)

        monkeypatch.setattr(Graph, "__init__", counted)
        solve(t)
        assert built == []

    def test_tree_product_walks_each_factor_once(self, monkeypatch):
        walks = count_walks(monkeypatch)
        tree_product_swap(path_graph(5), path_graph(4))
        assert walks == [5, 4]

    def test_dd_m_tree_runs_no_dp_on_a_strong_tree(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("partition DP on a strong tree")

        monkeypatch.setattr(tree_algorithms, "_weak_partition_dp", refuse)
        assert dd_m_tree(STRONG_TREE).status == INFINITE


def flag(t, key):
    """One equality flag of the `tree` payload."""
    return analyse_tree(t).to_json_dict()[key]


class TestCharacterizations:
    def test_hat_graphs_hit_four_way_equality(self):
        for base in (path_graph(3), path_graph(4), spider(1, 1, 2), star_graph(3)):
            hat = hat_graph(base)
            assert flag(hat, "gamma_equals_alpha")
            assert domination_number(hat) == independence_number(hat)

    def test_four_way_equality_matches_gamma_alpha(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                assert flag(t, "gamma_equals_alpha") == (brute_gamma(t) == brute_alpha(t))

    def test_alpha_equals_ddm_against_brute_force(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                result = dd_m_tree(t)
                truth = result.status == FINITE and result.k == brute_alpha(t)
                assert flag(t, "alpha_equals_swap_number") == truth

    def test_alpha_equals_eviction_against_brute_force(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                assert flag(t, "alpha_equals_eviction") == (brute_alpha(t) == s_weight(t)[0])

    def test_ddm_at_most_alpha_on_weak_trees(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                result = dd_m_tree(t)
                if result.status == FINITE:
                    assert result.k <= brute_alpha(t)

    @pytest.mark.parametrize("t,expected", [
        (path_graph(4), True),
        (path_graph(5), False),
        (star_graph(3), False),
    ])
    def test_alpha_equals_ddm_examples(self, t, expected):
        assert flag(t, "alpha_equals_swap_number") == expected

    @pytest.mark.parametrize("t,expected", [
        (path_graph(4), True),
        (star_graph(3), True),
        (path_graph(5), False),
    ])
    def test_alpha_equals_eviction_examples(self, t, expected):
        assert flag(t, "alpha_equals_eviction") == expected


class TestEnumeration:
    def test_counts_match_tree_census(self):
        expected = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
        for n, count in expected.items():
            assert len(enumerate_trees(n)) == count

    def test_canonical_key_invariant_under_relabeling(self):
        t = spider(1, 2, 3)
        relabel = {v: (v * 3 + 1) % t.n for v in range(t.n)}
        shuffled = Graph(t.n, [(relabel[u], relabel[v]) for u, v in t.edges])
        assert tree_canonical_key(t) == tree_canonical_key(shuffled)

    def test_canonical_key_separates(self):
        assert tree_canonical_key(path_graph(4)) != tree_canonical_key(star_graph(3))

    def test_deep_path_key_within_recursion_limit(self):
        # P_3001 rooted at its center: two 1500-vertex chains under the root
        chain = "(" * 1500 + ")" * 1500
        assert tree_canonical_key(path_graph(3001)) == "(" + chain + chain + ")"
