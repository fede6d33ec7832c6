import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from helpers import brute_ddm, complete_graph, mask_of
from swapsets import (
    BUDGET_EXCEEDED,
    BudgetError,
    ConstructionError,
    ContractError,
    DdmResult,
    FINITE,
    Graph,
    INFINITE,
    SwapCertificate,
    canonical_id,
    cycle_graph,
    dd_m_exact,
    domination_number,
    grid_graph,
    is_dominating,
    path_graph,
    star_graph,
    subdivided_doubled_triangle,
    swap_pair_below,
    verify_certificate,
)
from swapsets import exact_solver, graph_core
from swapsets.exact_solver import dominating_sets_lex
from swapsets.graph_core import members_of
from swapsets.small_alpha import enumerate_connected_graphs
from test_graph_core import random_graphs


class TestDominatingSetsLex:
    def test_lexicographic_order(self):
        g = cycle_graph(5)
        masks = list(dominating_sets_lex(g, 2))
        assert masks == sorted(masks)
        assert all(m.bit_count() == 2 for m in masks)

    def test_restriction_mask(self):
        g = path_graph(4)
        unrestricted = set(dominating_sets_lex(g, 2))
        restricted = set(dominating_sets_lex(g, 2, 0b0110))
        assert restricted <= unrestricted
        assert restricted == {0b0110}

    def test_matches_brute_force(self):
        # every k, on the full vertex set and three random subsets of it
        rng = random.Random(2017)
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                for allowed in (g.full_mask, *(rng.getrandbits(n) for _ in range(3))):
                    for k in range(n + 2):
                        expected = [mask_of(c)
                                    for c in combinations(sorted(members_of(allowed)), k)
                                    if is_dominating(g, c)]
                        assert list(dominating_sets_lex(g, k, allowed)) == expected, \
                            (g.edges, allowed, k)


class TestKnownValues:
    @pytest.mark.parametrize("g,k", [
        (path_graph(2), 1),
        (path_graph(4), 2),
        (cycle_graph(4), 2),
        (cycle_graph(5), 2),
        (cycle_graph(6), 2),
        (path_graph(6), 3),
        (complete_graph(4), 1),
    ])
    def test_finite(self, g, k):
        result = dd_m_exact(g)
        assert result.status == FINITE and result.k == k
        assert verify_certificate(g, result.certificate)

    @pytest.mark.parametrize("g", [
        path_graph(1),
        path_graph(3),
        star_graph(3),
        star_graph(2),
    ])
    def test_infinite(self, g):
        assert dd_m_exact(g).status == INFINITE

    def test_nine_vertex_graph_has_swap_number_three(self):
        g = subdivided_doubled_triangle()
        result = dd_m_exact(g)
        assert result.status == FINITE and result.k == 3
        assert verify_certificate(g, result.certificate)

    def test_empty_graph_rejected(self):
        from swapsets import Graph
        with pytest.raises(ContractError):
            dd_m_exact(Graph(0, []))


class TestDeterminism:
    def test_lex_least_certificate_on_c5(self):
        cert = dd_m_exact(cycle_graph(5)).certificate
        assert cert == SwapCertificate.build([0, 2], [1, 3], [(0, 1), (2, 3)])

    def test_repeat_runs_identical(self):
        g = cycle_graph(8)
        a = dd_m_exact(g)
        b = dd_m_exact(g)
        assert a == b and a.certificate == b.certificate


class TestBudget:
    def test_zero_budget_reports_exhaustion(self):
        result = dd_m_exact(cycle_graph(4), node_budget=0)
        assert result.status == BUDGET_EXCEEDED
        assert result.k is None and result.certificate is None

    def test_large_budget_finishes(self):
        assert dd_m_exact(cycle_graph(4), node_budget=10).status == FINITE

    def test_budget_counts_candidate_partner_sets_across_k(self):
        # one unit per candidate D' set: the strong graph 6-818a04 has six,
        # all at k = 3, and no pair
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 5)])
        assert canonical_id(g) == "6-818a04"
        assert swap_pair_below(g, g.n // 2 + 1, node_budget=5).status == BUDGET_EXCEEDED
        assert swap_pair_below(g, g.n // 2 + 1, node_budget=6).status == INFINITE
        # the first candidate pair of the nine-vertex graph is its certificate
        nine = subdivided_doubled_triangle()
        assert dd_m_exact(nine, node_budget=0).status == BUDGET_EXCEEDED
        assert dd_m_exact(nine, node_budget=1).status == FINITE


class TestOneSearch:
    @pytest.fixture
    def no_gamma(self, monkeypatch):
        def forbidden(g):
            raise AssertionError("domination_number called")

        monkeypatch.setattr(graph_core, "domination_number", forbidden)
        monkeypatch.setattr(exact_solver, "domination_number", forbidden, raising=False)

    def test_pair_search_finds_gamma_itself(self, no_gamma):
        for g, k in ((path_graph(6), 3), (cycle_graph(5), 2),
                     (subdivided_doubled_triangle(), 3)):
            assert dd_m_exact(g).k == k
            assert swap_pair_below(g, k + 1).k == k
            assert swap_pair_below(g, k).status == INFINITE

    def test_oversized_graph_is_refused_before_searching(self, no_gamma, monkeypatch):
        def forbidden(*args):
            raise AssertionError("dominating_sets_lex called")

        monkeypatch.setattr(exact_solver, "dominating_sets_lex", forbidden)
        g = grid_graph(8, 8)
        for search in (dd_m_exact, lambda g: swap_pair_below(g, 2)):
            with pytest.raises(BudgetError, match=r"^domination_number capped at n=30, got n=64$"):
                search(g)


class TestCertificateCheck:
    def test_wrong_matching_is_a_construction_error(self, monkeypatch):
        real = exact_solver.lex_least_matching

        def reversed_pairs(g, a, b):
            return tuple((v, u) for u, v in real(g, a, b))

        monkeypatch.setattr(exact_solver, "lex_least_matching", reversed_pairs)
        with pytest.raises(ConstructionError, match="matched-vertex-not-in-d:"):
            dd_m_exact(path_graph(4))


class TestStrongShortcut:
    def test_shortcut_matches_search(self):
        # swap_pair_below up to n//2 runs dd_m_exact's search without its
        # strong-stem shortcut
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                fast = dd_m_exact(g).status
                slow = swap_pair_below(g, g.n // 2 + 1).status
                assert fast == slow


class TestSwapPairBelow:
    def test_finds_within_bound(self):
        result = swap_pair_below(cycle_graph(6), 3)
        assert result.status == FINITE and result.k <= 3

    def test_bound_too_small(self):
        assert swap_pair_below(path_graph(6), 2).status == INFINITE

    def test_agrees_with_exact(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                exact = dd_m_exact(g)
                bounded = swap_pair_below(g, g.n // 2 + 1)
                assert bounded.status == exact.status
                if exact.status == FINITE:
                    assert bounded.k == exact.k


class TestResultShape:
    def test_json_infinity_spelling(self):
        assert DdmResult(INFINITE).to_json_dict()["ddm"] == "infinity"
        assert dd_m_exact(path_graph(4)).to_json_dict()["ddm"] == 2


class TestAgainstBruteForce:
    def test_all_connected_graphs_to_six_vertices(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                expected = brute_ddm(g)
                result = dd_m_exact(g)
                if expected is None:
                    assert result.status == INFINITE, g.edges
                else:
                    assert result.status == FINITE and result.k == expected, g.edges
                    assert verify_certificate(g, result.certificate)

    @settings(derandomize=True, max_examples=25)
    @given(random_graphs(max_n=6))
    def test_random_graphs_property(self, g):
        expected = brute_ddm(g)
        result = dd_m_exact(g)
        if expected is None:
            assert result.status == INFINITE
        else:
            assert result.k == expected
            assert result.k >= domination_number(g)
            assert verify_certificate(g, result.certificate)
