import hashlib
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings

from helpers import complete_graph, enumerate_trees, prufer_tree, star_partition_order2_oracle

from swapsets import (
    ContractError,
    FINITE,
    Graph,
    canonical_id,
    cartesian_product,
    cycle_graph,
    dd_m_exact,
    domination_number,
    has_dominating_set,
    path_graph,
    product_question_scan,
    product_swap_general,
    star_graph,
    star_partition_order2,
    star_product_layout,
    star_product_swap,
    tree_product_swap,
    verify_certificate,
)
from swapsets import product_constructions, small_alpha
from swapsets.cli import _dumps
from swapsets.product_constructions import partition_stats
from test_graph_core import random_graphs
from test_tree_algorithms import count_walks, random_trees, spider


class TestStarProductLayout:
    def test_c4_base_case(self):
        layout = star_product_layout(1, 1)
        assert set(layout.d_coords) == {(0, 0), (1, 1)}
        assert set(layout.d_prime_coords) == {(0, 1), (1, 0)}
        assert len(layout.matching_coords) == 2

    def test_sizes_follow_formula(self):
        for p in range(1, 6):
            for q in range(1, p + 1):
                layout = star_product_layout(p, q)
                expected = max(2, p + q - 1)
                assert len(layout.d_coords) == expected
                assert len(layout.d_prime_coords) == expected
                assert len(layout.matching_coords) == expected

    def test_rejects_bad_order(self):
        with pytest.raises(ContractError):
            star_product_layout(1, 2)
        with pytest.raises(ContractError):
            star_product_layout(0, 0)


class TestStarProductSwap:
    def test_certificates_verify(self):
        for p in range(1, 6):
            for q in range(1, 6):
                if p + q > 6:
                    continue
                g, cert = star_product_swap(p, q)
                assert g.n == (p + 1) * (q + 1)
                assert verify_certificate(g, cert)
                assert cert.size() == max(2, p + q - 1)

    def test_transposed_arguments_agree_in_size(self):
        g1, c1 = star_product_swap(3, 1)
        g2, c2 = star_product_swap(1, 3)
        assert c1.size() == c2.size() == 3
        assert g1.n == g2.n == 8

    def test_sizes_are_optimal(self):
        for p, q in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
            g, cert = star_product_swap(p, q)
            exact = dd_m_exact(g)
            assert exact.status == FINITE
            assert cert.size() == exact.k


class TestStarPartitionOrder2:
    def test_partitions_cover_with_big_parts(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                partition = star_partition_order2(t)
                seen = [v for c, ls in partition.parts for v in (c, *ls)]
                assert sorted(seen) == list(range(t.n))
                for center, leaves in partition.parts:
                    assert len(leaves) >= 1
                    assert all(t.has_edge(center, v) for v in leaves)

    def test_stats(self):
        partition = star_partition_order2(path_graph(6))
        count, widest = partition_stats(partition)
        assert count == len(partition.parts)
        assert widest == max(len(ls) for _, ls in partition.parts)

    @settings(derandomize=True, max_examples=40)
    @given(random_trees())
    def test_matches_quadratic_greedy(self, t):
        assert star_partition_order2(t) == star_partition_order2_oracle(t)

    def test_matches_quadratic_greedy_on_all_small_and_one_large_tree(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                assert star_partition_order2(t) == star_partition_order2_oracle(t)
        rng = random.Random(7)
        t = Graph(3000, [(rng.randrange(v), v) for v in range(1, 3000)])
        assert star_partition_order2(t) == star_partition_order2_oracle(t)

    @settings(derandomize=True, max_examples=40)
    @given(random_trees())
    def test_random_trees(self, t):
        partition = star_partition_order2(t)
        seen = sorted(v for c, ls in partition.parts for v in (c, *ls))
        assert seen == list(range(t.n))
        assert all(ls for _, ls in partition.parts)


class TestTreeProductSwap:
    def test_path_pairs_verify(self):
        for a in (2, 3, 4, 5):
            for b in (2, 3, 4):
                g, cert, bound = tree_product_swap(path_graph(a), path_graph(b))
                assert g.n == a * b
                assert verify_certificate(g, cert)
                assert bound >= 1

    def test_spider_pairs_verify(self):
        pairs = [(spider(1, 2, 2), path_graph(4)), (spider(2, 2), star_graph(3))]
        for t, u in pairs:
            g, cert, _ = tree_product_swap(t, u)
            assert verify_certificate(g, cert)

    def test_all_small_tree_pairs(self):
        trees = [t for n in range(2, 6) for t in enumerate_trees(n)]
        for t in trees:
            for u in trees:
                g, cert, _ = tree_product_swap(t, u)
                assert verify_certificate(g, cert)


class TestProductSwapGeneral:
    def test_mixed_factor_pairs(self):
        pairs = [
            (cycle_graph(5), cycle_graph(4)),
            (complete_graph(4), path_graph(3)),
            (star_graph(3), star_graph(2)),
            (cycle_graph(3), complete_graph(3)),
        ]
        for g, h in pairs:
            prod, cert = product_swap_general(g, h)
            assert prod.n == g.n * h.n
            assert verify_certificate(prod, cert)

    def test_works_for_strong_factors(self):
        # factors without swap sets still give a swap set in the product
        g, h = star_graph(3), star_graph(4)
        prod, cert = product_swap_general(g, h)
        assert verify_certificate(prod, cert)

    def test_trivial_factor_rejected(self):
        with pytest.raises(ContractError):
            product_swap_general(path_graph(1), path_graph(4))

    def test_disconnected_factor_rejected(self):
        with pytest.raises(ContractError, match="connected"):
            product_swap_general(Graph(4, [(0, 1), (2, 3)]), path_graph(3))

    def test_one_walk_per_factor_and_one_graph(self, monkeypatch):
        g, h = cycle_graph(7), path_graph(5)
        graphs = [0]
        real_init = Graph.__init__

        def counted_init(self, *args, **kwargs):
            graphs[0] += 1
            real_init(self, *args, **kwargs)

        walks = count_walks(monkeypatch)
        monkeypatch.setattr(Graph, "__init__", counted_init)
        product, cert = product_swap_general(g, h)
        # a tree is its own breadth-first spanning tree, so the walk that
        # checks a factor's connectivity is all its tiling needs; the only
        # Graph built is the product
        assert sorted(walks) == [5, 7]
        assert graphs[0] == 1 and product.n == 35


# sha256 of the certificates product_swap_general builds on every unordered
# pair of the 30 census factors with 2..5 vertices and on a 300-vertex
# Prüfer tree x C8, one serialized certificate per line
TILING_SHA256 = "b3f716038c7b6531b5b8f26c1770ce1c81681ecdcc8911e2064d3c6e2be57364"


def test_tiling_matches_recorded_digest():
    factors = [rec.graph for rec in small_alpha.census(5) if rec.n >= 2]
    pairs = [(g, h) for i, g in enumerate(factors) for h in factors[i:]]
    pairs.append((prufer_tree(300, random.Random(2017)), cycle_graph(8)))
    assert (len(factors), len(pairs)) == (30, 466)
    digest = hashlib.sha256()
    for g, h in pairs:
        _, cert = product_swap_general(g, h)
        digest.update(_dumps(cert.to_json_dict()).encode() + b"\n")
    assert digest.hexdigest() == TILING_SHA256


class TestProductQuestionScan:
    def test_small_scope_clean(self):
        report = product_question_scan(12)
        assert report.gg_violations == 0
        # every product at this scope is small enough for an exact value
        assert all(r.ddm_product == "infinity" or r.ddm_product.isdigit()
                   for r in report.rows)

    def test_tsv_shape(self):
        report = product_question_scan(9)
        lines = report.to_tsv().strip().split("\n")
        assert lines[0].split("\t")[0] == "g_id"
        assert len(lines) == len(report.rows) + 1

    def test_deterministic(self):
        assert product_question_scan(10).to_tsv() == product_question_scan(10).to_tsv()

    def test_pair_loop_stops_at_the_first_oversized_factor(self, monkeypatch):
        reads = [0]

        class CountedRecord:
            def __init__(self, rec):
                self._rec = rec

            @property
            def graph(self):
                reads[0] += 1
                return self._rec.graph

            def __getattr__(self, name):
                return getattr(self._rec, name)

        census = small_alpha.census
        monkeypatch.setattr(small_alpha, "census",
                            lambda max_n: [CountedRecord(r) for r in census(max_n)])
        report = product_question_scan(15)
        factors = sum(1 for r in census(7) if r.n >= 2)
        # each pair looked at reads both factors' graphs; the census is
        # ordered by n, so besides the kept pairs each factor looks at one
        # pair at most, the one that ends its loop
        assert len(report.rows) == 1052
        assert reads[0] <= 2 * (len(report.rows) + factors)

    def test_gamma_product_bound_spot_checks(self):
        # gamma(G x H) >= max(gamma(G), gamma(H)) via projection; an exact
        # swap number can never undercut that
        report = product_question_scan(12)
        for row in report.rows:
            if row.ddm_product.isdigit():
                assert int(row.ddm_product) >= max(row.gamma_g, row.gamma_h)


class TestSolvesOnlyWhatItPrints:
    """A row reads a factor's swap number only when min_expr depends on it,
    and searches the product for a dominating set below gamma(g) gamma(h)
    only when both factors have gamma >= 2, which the projection bound
    gamma(g x h) >= max(gamma(g), gamma(h)) makes safe."""

    def test_call_counts_and_min_expr(self, monkeypatch):
        # fresh census records, so no gamma or swap number is cached yet,
        # and a serial map, so every call is made in this process
        monkeypatch.setattr(small_alpha, "_classes",
                            lru_cache(maxsize=None)(small_alpha._classes.__wrapped__))
        factors = [r for r in small_alpha.census(7) if r.n >= 2]
        monkeypatch.setattr(product_constructions, "_split_map",
                            lambda fn, items: list(map(fn, items)))
        calls = {"dd_m_exact": 0, "has_dominating_set": 0, "domination_number": 0}
        for module in (product_constructions, small_alpha):
            for name in calls:
                if hasattr(module, name):
                    def counted(*args, _name=name, _real=getattr(module, name)):
                        calls[_name] += 1
                        return _real(*args)
                    monkeypatch.setattr(module, name, counted)
        report = product_question_scan(15)
        # gamma once for each of the 995 factors; the 157 products of at
        # most 12 vertices solved exactly, and only 30 factors' swap numbers
        # read; no search below gamma(g) gamma(h), as every pair at this
        # scope has a factor with gamma 1, and 5 below min_expr
        assert len(factors) == 995 and len(report.rows) == 1052
        assert calls == {"dd_m_exact": 187, "has_dominating_set": 5,
                         "domination_number": 995}
        small_alpha.CensusRecord.fill(factors, ("gamma", "ddm"))
        by_id = {r.graph_id: r for r in factors}
        for row in report.rows:
            a, b = by_id[row.g_id], by_id[row.h_id]
            ddm_g, ddm_h = (math.inf if r.ddm == "infinity" else r.ddm for r in (a, b))
            eager = min(ddm_g * b.gamma, a.gamma * ddm_h)
            assert (row.gamma_g, row.gamma_h) == (a.gamma, b.gamma)
            assert row.min_expr == ("infinity" if eager == math.inf else str(eager))

    def test_projection_bound_on_every_pair_with_a_gamma_one_factor(self):
        graphs = {r.graph_id: r.graph for r in small_alpha.census(8)}
        checked = 0
        for row in product_question_scan(18).rows:
            if min(row.gamma_g, row.gamma_h) == 1:
                product = cartesian_product(graphs[row.g_id], graphs[row.h_id])
                assert not has_dominating_set(product, row.gamma_g * row.gamma_h - 1)
                checked += 1
        assert checked == 12411  # of 12,414 pairs

    @settings(derandomize=True, max_examples=60)
    @given(random_graphs(max_n=6), random_graphs(max_n=6))
    def test_projection_bound(self, g, h):
        bound = max(domination_number(g), domination_number(h))
        assert not has_dominating_set(cartesian_product(g, h), bound - 1)


# the two 6-vertex factors of the max-question counterexamples
H1 = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5)])
H2 = Graph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (1, 5), (2, 5), (4, 5)])


class TestMaxQuestionCounterexamples:
    """max(DD_m(G) gamma(H), gamma(G) DD_m(H)) <= DD_m(G x H) fails on three
    products with 24 vertices, each of swap number 5 against a bound of 6,
    while the min bound and gamma(G) gamma(H) still hold."""

    @pytest.mark.parametrize("g,h,h_id,low", [
        (path_graph(4), H1, "6-20c18b08", 2),
        (cycle_graph(4), H1, "6-20c18b08", 2),
        (cycle_graph(4), H2, "6-20c18910", 4),
    ])
    def test_product_undercuts_the_max_bound(self, g, h, h_id, low):
        assert canonical_id(h) == h_id
        factors = [dd_m_exact(g), dd_m_exact(h)]
        for f, res in zip((g, h), factors):
            assert res.status == FINITE and verify_certificate(f, res.certificate)
        ddm_g, ddm_h = (r.k for r in factors)
        gamma_g, gamma_h = domination_number(g), domination_number(h)
        product = cartesian_product(g, h)
        res = dd_m_exact(product)
        assert res.status == FINITE and verify_certificate(product, res.certificate)
        assert res.k == 5 < max(ddm_g * gamma_h, gamma_g * ddm_h) == 6
        assert min(ddm_g * gamma_h, gamma_g * ddm_h) == low <= res.k
        assert gamma_g * gamma_h == low <= res.k
