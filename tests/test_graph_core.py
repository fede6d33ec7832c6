import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_alpha,
    brute_dominating,
    brute_gamma,
    complete_graph,
    dominating_sets_brute,
    graph_oracle,
    has_dominating_set_oracle,
    lex_least_matching_oracle,
    matching_between_oracle,
    parse_graph_oracle,
)
from swapsets import (
    ContractError,
    Graph,
    GraphParseError,
    SwapCertificate,
    cartesian_product,
    census,
    certificate_violations,
    cycle_graph,
    domination_number,
    format_graph,
    grid_graph,
    has_dominating_set,
    independence_number,
    is_connected,
    is_dominating,
    is_independent,
    is_strong_graph,
    is_tree,
    matching_between,
    parse_graph,
    path_graph,
    star_graph,
    subdivided_doubled_triangle,
    verify_certificate,
)
import swapsets
from swapsets import graph_core
from swapsets.graph_core import (
    MAX_GRAPH_N,
    BudgetError,
    ConstructionError,
    _SPLIT_MIN_ITEMS,
    _split_map,
    bfs_tree,
    certified,
    dominating_sets_lex,
    lex_least_matching,
    members_of,
)


def random_graphs(max_n=7):
    """Connected graphs drawn by keeping a random subset of complete-graph
    edges plus a random spanning tree to force connectivity."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        edges = set()
        for v in range(1, n):
            edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
        for u in range(n):
            for v in range(u + 1, n):
                if draw(st.booleans()):
                    edges.add((u, v))
        return Graph(n, sorted(edges))

    return build()


def any_graphs(max_n=8):
    """Graphs on 0..max_n vertices, connected or not, each edge of the
    complete graph kept or dropped."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, [e for e in pairs if draw(st.booleans())])

    return build()


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ContractError, ValueError, IndexError) as exc:
        return type(exc), str(exc)


def mixed_edge_lists(max_n=12):
    """(n, edges): distinct edges, sorted or shuffled, some reversed, with
    up to two bad edges (out of range, a loop or a repeat) inserted.  Sorted
    lists of more than 16 edges reach the constructor's column checks."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
        if draw(st.booleans()):
            edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            kind = draw(st.sampled_from(["range", "loop", "repeat"]))
            if kind == "range":
                bad = (draw(st.integers(min_value=-2, max_value=n + 2)),
                       draw(st.sampled_from([-1, n, n + 1])))
            elif kind == "loop":
                v = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
                bad = (v, v)
            elif edges:
                u, v = draw(st.sampled_from(edges))
                bad = draw(st.sampled_from([(u, v), (v, u)]))
            else:
                continue
            if draw(st.booleans()):
                bad = bad[::-1]
            edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), bad)
        order = draw(st.sampled_from(["sorted", "shuffled", "as drawn"]))
        if order == "sorted":
            edges.sort()
        elif order == "shuffled":
            edges = draw(st.permutations(edges))
        if draw(st.booleans()):
            edges = [list(e) for e in edges]
        return n, edges

    return build()


def edge_list_texts(max_n=9):
    """Edge-list text, sorted as format_graph writes it or shuffled, either
    in format_graph's layout or with comments,
    blank lines, tabs, padding and CRLF line ends, and with at most one
    bad line injected."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
        if draw(st.booleans()):
            edges = [(v, u) if draw(st.booleans()) else (u, v)
                     for u, v in draw(st.permutations(edges))]
        m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        lines = [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]
        if draw(st.booleans()):
            bad = draw(st.sampled_from([
                "x 1", "1 2 3", "7", "0", f"0 {n}", f"{n + 3} 1", "2 2", "0 0", "-1 0",
                "+1 0", "1_0 2", "0 1", "1 0", f"{n} {m}", "\u0661 0", "0 1 # note"]))
            lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), bad)
        if draw(st.booleans()):
            sep = draw(st.sampled_from(["\n", "\r\n"]))
            decorated = []
            for line in lines:
                if draw(st.integers(min_value=0, max_value=3)) == 0:
                    decorated.append(draw(st.sampled_from(["", "# comment", "  ", "\t"])))
                pad = draw(st.sampled_from(["", " ", "\t"]))
                decorated.append(pad + line.replace(" ", draw(st.sampled_from([" ", "\t", "  "]))) + pad)
            lines = decorated
        else:
            sep = "\n"
        return sep.join(lines) + draw(st.sampled_from([sep, ""]))

    return build()


class TestGraphBasics:
    def test_construction_normalizes_edges(self):
        g = Graph(3, [(2, 0), (0, 1)])
        assert g.edges == ((0, 1), (0, 2))
        assert g.neighbors(0) == (1, 2)
        assert g.degree(0) == 2 and g.degree(1) == 1

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (1, 0)])

    @settings(derandomize=True, max_examples=400)
    @given(mixed_edge_lists())
    def test_construction_matches_per_edge_oracle(self, case):
        n, edges = case
        try:
            want_edges, want_adj = graph_oracle(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Graph(n, edges)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        g = Graph(n, edges)
        assert g.edges == want_edges
        assert tuple(map(g.neighbors, range(n))) == want_adj
        assert hash(g) == hash((n, want_edges))
        assert g == Graph(n, want_edges) == Graph(n, want_edges[::-1])
        assert g != Graph(n + 1, want_edges)

    @pytest.mark.parametrize("bad", [(-1, 0), (-2, 5), (7, 20), (19, 20), (19, 21), (4, 4), (4, 5)])
    def test_long_sorted_lists_name_the_first_bad_edge(self, bad):
        # strictly ascending lists of more than 16 edges are checked by column
        edges = sorted([(i, i + 1) for i in range(19)] + [bad])
        with pytest.raises(ValueError) as want:
            graph_oracle(20, edges)
        with pytest.raises(ValueError) as got:
            Graph(20, edges)
        assert str(got.value) == str(want.value)

    def test_masks(self):
        g = path_graph(4)
        assert g.open_mask(1) == 0b101
        assert g.closed_mask(1) == 0b111
        assert members_of(0b1010) == frozenset({1, 3})

    def test_equality_and_hash(self):
        assert path_graph(3) == Graph(3, [(1, 2), (0, 1)])
        assert hash(path_graph(3)) == hash(Graph(3, [(1, 2), (0, 1)]))
        assert path_graph(3) != cycle_graph(3)

    @settings(derandomize=True, max_examples=40)
    @given(random_graphs(max_n=9))
    def test_adjacency_and_masks_agree_with_edges(self, g):
        edges = set(g.edges)
        for v in range(g.n):
            nbrs = g.neighbors(v)
            assert list(nbrs) == sorted(u for u in range(g.n) if (min(u, v), max(u, v)) in edges)
            assert g.open_mask(v) == sum(1 << u for u in nbrs)
            assert g.closed_mask(v) == g.open_mask(v) | 1 << v
            assert all(g.has_edge(v, u) == (u in nbrs) for u in range(g.n))

    def test_build_memory_is_linear(self):
        # the per-vertex masks (n bits each) are not built until asked for,
        # so a graph costs O(n + m) bytes
        for build in (lambda: grid_graph(200, 200), lambda: path_graph(40_000)):
            tracemalloc.start()
            try:
                g = build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert g.n == 40_000
            assert peak < 2048 * g.n


class TestParseFormat:
    def test_round_trip(self):
        g = grid_graph(3, 2)
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blanks(self):
        g = parse_graph("# a path\n\n3 2\n0 1\n\n# middle\n1 2\n")
        assert g == path_graph(3)

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("3\n", 1),
        ("2 1\n0 5\n", 2),
        ("2 1\n1 1\n", 2),
        ("3 2\n0 1\n", 1),
        ("2 2\n0 1\n1 0\n", 1),
        ("x y\n", 1),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert exc.value.line_no == line

    def test_header_size_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphParseError, match="above the cap") as exc:
                parse_graph(f"# too large\n{MAX_GRAPH_N + 1} 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.line_no == 2
        assert peak < 100_000

    @settings(derandomize=True, max_examples=400)
    @given(edge_list_texts())
    def test_matches_line_by_line_oracle(self, text):
        try:
            n, want_edges, want_adj = parse_graph_oracle(text)
        except GraphParseError as exc:
            with pytest.raises(GraphParseError) as got:
                parse_graph(text)
            assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc))
            return
        g = parse_graph(text)
        assert (g.n, g.edges, tuple(map(g.neighbors, range(g.n)))) == (n, want_edges, want_adj)

    @settings(derandomize=True, max_examples=40)
    @given(random_graphs())
    def test_round_trip_property(self, g):
        assert parse_graph(format_graph(g)) == g


class TestGenerators:
    def test_shapes(self):
        assert len(path_graph(5).edges) == 4
        assert len(cycle_graph(5).edges) == 5
        assert len(star_graph(4).edges) == 4 and star_graph(4).n == 5
        assert len(complete_graph(4).edges) == 6
        g = grid_graph(4, 3)
        assert g.n == 12 and len(g.edges) == 4 * 2 + 3 * 3

    def test_grid_vertex_layout(self):
        g = grid_graph(3, 2)
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_nine_vertex_graph(self):
        g = subdivided_doubled_triangle()
        assert g.n == 9 and len(g.edges) == 12
        assert all(g.degree(v) == 4 for v in range(3))
        assert all(g.degree(v) == 2 for v in range(3, 9))


class TestPredicates:
    def test_dominating(self):
        g = path_graph(4)
        assert is_dominating(g, [1, 2])
        assert is_dominating(g, [0, 2])
        assert not is_dominating(g, [0, 1])

    def test_independent(self):
        g = cycle_graph(5)
        assert is_independent(g, [0, 2])
        assert not is_independent(g, [0, 1])

    def test_vertex_range_checked(self):
        g = path_graph(4)
        for check in (is_dominating, is_independent):
            with pytest.raises(ValueError, match="vertex 4 out of range"):
                check(g, [1, 4])
        with pytest.raises(ValueError):
            matching_between(g, [0], [-1])

    def test_connectivity(self):
        assert is_connected(path_graph(6))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_bfs_tree(self):
        parent, order = bfs_tree(Graph(6, [(0, 3), (0, 1), (1, 2), (3, 2), (4, 5)]))
        assert order == [0, 1, 3, 2]
        assert parent == [-1, 0, 1, 0, -1, -1]
        assert bfs_tree(Graph(0, [])) == ([], [])

    def test_is_tree(self):
        assert is_tree(path_graph(5))
        assert is_tree(star_graph(6))
        assert not is_tree(cycle_graph(4))
        assert not is_tree(Graph(3, [(0, 1)]))

    def test_stems(self):
        assert not is_strong_graph(path_graph(2))
        assert is_strong_graph(star_graph(3))
        # a triangle with pendant leaves: strong only when one vertex holds two
        assert not is_strong_graph(Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]))
        assert is_strong_graph(Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)]))
        assert not is_strong_graph(path_graph(5))
        assert is_strong_graph(star_graph(2))
        spider = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        assert not is_strong_graph(spider)


class TestMatching:
    def test_perfect_matching_found(self):
        g = cycle_graph(6)
        m = matching_between(g, [0, 3], [1, 4])
        assert m is not None and len(m) == 2

    def test_no_matching(self):
        g = star_graph(3)
        assert matching_between(g, [1, 2], [0, 3]) is None

    def test_long_augmenting_path_within_recursion_limit(self):
        # a_i = 2i+1 and b_j = 2j; a_i takes b_i first, so the last a-vertex,
        # whose only partner is b_0, needs an augmenting path through all of them
        k = 2000
        a, b = [2 * i + 1 for i in range(k)], [2 * j for j in range(k)]
        edges = [(a[i], b[i]) for i in range(k - 1)]
        edges += [(a[i], b[i + 1]) for i in range(k - 1)]
        edges.append((a[k - 1], b[0]))
        g = Graph(2 * k, edges)
        expected = tuple((a[i], b[i + 1]) for i in range(k - 1)) + ((a[k - 1], b[0]),)
        assert matching_between(g, a, b) == expected

    def test_lex_least_is_least(self):
        g = cycle_graph(4)
        assert lex_least_matching(g, [0, 2], [1, 3]) == ((0, 1), (2, 3))

    @settings(derandomize=True, max_examples=150)
    @given(any_graphs(max_n=8), st.data())
    def test_matchings_match_the_oracles(self, g, data):
        # disjoint sets of equal size, in range: the same matching or None
        verts = data.draw(st.permutations(range(g.n)))
        k = data.draw(st.integers(min_value=0, max_value=g.n // 2))
        a, b = verts[:k], verts[k:2 * k]
        assert matching_between(g, a, b) == matching_between_oracle(g, a, b)
        assert lex_least_matching(g, a, b) == lex_least_matching_oracle(g, a, b)

    @settings(derandomize=True, max_examples=150)
    @given(any_graphs(max_n=6), st.data())
    def test_matching_errors_match_the_oracle(self, g, data):
        # any lists, sizes that differ, overlaps and vertices out of range
        # included: matching_between returns or raises what it did before,
        # and lex_least_matching refuses exactly what matching_between does
        vertex = st.integers(min_value=-1, max_value=g.n)
        a = data.draw(st.lists(vertex, max_size=4))
        b = data.draw(st.lists(vertex, max_size=4))
        expected = outcome(matching_between_oracle, g, a, b)
        assert outcome(matching_between, g, a, b) == expected
        if isinstance(expected, tuple) and expected and isinstance(expected[0], type):
            assert outcome(lex_least_matching, g, a, b) == expected
        else:
            assert lex_least_matching(g, a, b) == lex_least_matching_oracle(g, a, b)

    def test_matching_errors(self):
        g = path_graph(4)
        with pytest.raises(ContractError, match="equal size"):
            lex_least_matching(g, [0], [1, 3])
        with pytest.raises(ContractError, match="disjoint"):
            matching_between(g, [0, 1], [1, 2])
        with pytest.raises(ValueError, match="vertex 4 out of range"):
            lex_least_matching(g, [0], [4])
        # a vertices are range-checked as b vertices are, before them
        for match in (matching_between, lex_least_matching):
            for a in ([-1], [4]):
                with pytest.raises(ValueError, match=f"vertex {a[0]} out of range"):
                    match(g, a, [2])

    def test_matching_builds_no_vertex_masks(self):
        # the masks take n bits per vertex; a matching on a large graph
        # reads the adjacency tuples only
        g = grid_graph(100, 100)
        a, b = range(0, 200, 2), range(1, 200, 2)
        assert len(matching_between(g, a, b)) == 100
        assert len(lex_least_matching(g, a, b)) == 100
        for name in ("_open", "_closed"):
            with pytest.raises(AttributeError):
                getattr(Graph, name).__get__(g, Graph)

    @settings(derandomize=True, max_examples=40)
    @given(random_graphs(max_n=6), st.data())
    def test_matching_symmetry(self, g, data):
        k = data.draw(st.integers(min_value=1, max_value=g.n // 2))
        verts = data.draw(st.permutations(range(g.n)))
        a, b = verts[:k], verts[k:2 * k]
        forward = matching_between(g, a, b)
        backward = matching_between(g, b, a)
        assert (forward is None) == (backward is None)


class TestSwapCertificate:
    def good(self):
        return SwapCertificate.build([0, 2], [1, 3], [(0, 1), (2, 3)])

    def test_verifies_on_path(self):
        assert verify_certificate(path_graph(4), self.good())

    def test_json_round_trip(self):
        cert = self.good()
        assert SwapCertificate.from_json_dict(cert.to_json_dict()) == cert

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            SwapCertificate.from_json_dict({"d": [0]})

    def test_violation_catalog(self):
        g = path_graph(4)
        overlap = SwapCertificate.build([0, 1], [1, 3], [(0, 1), (1, 3)])
        assert any(v.startswith("sets-not-disjoint") for v in certificate_violations(g, overlap))
        nondom = SwapCertificate.build([0, 1], [2, 3], [(0, 2)])
        probs = certificate_violations(g, nondom)
        assert any(v.startswith("matching-size-mismatch") for v in probs)
        assert "d-not-dominating" in probs
        nonedge = SwapCertificate.build([0, 2], [1, 3], [(0, 3), (2, 1)])
        assert any(v.startswith("pair-not-an-edge") for v in certificate_violations(g, nonedge))
        out = SwapCertificate.build([0, 9], [1, 3], [(0, 1), (9, 3)])
        assert certificate_violations(g, out) == ("vertex-out-of-range:9",)
        stranger = SwapCertificate.build([0, 2], [1, 3], [(0, 1), (3, 3)])
        probs = certificate_violations(g, stranger)
        assert any(v.startswith("matched-vertex-not-in-d:") for v in probs)

    def test_certified_returns_a_verifying_certificate_or_names_its_violations(self):
        g, cert = path_graph(4), self.good()
        assert certified(g, cert) is cert
        nonedge = SwapCertificate.build([0, 2], [1, 3], [(0, 3), (2, 1)])
        with pytest.raises(ConstructionError, match=r"fails verification: pair-not-an-edge:0-3$"):
            certified(g, nonedge)


class TestInvariantNumbers:
    @pytest.mark.parametrize("g,alpha", [
        (path_graph(4), 2),
        (path_graph(5), 3),
        (cycle_graph(5), 2),
        (complete_graph(4), 1),
        (star_graph(3), 3),
        (subdivided_doubled_triangle(), 6),
    ])
    def test_independence_number(self, g, alpha):
        assert independence_number(g) == alpha

    @pytest.mark.parametrize("g,gamma", [
        (path_graph(4), 2),
        (path_graph(7), 3),
        (cycle_graph(5), 2),
        (star_graph(5), 1),
        (grid_graph(3, 3), 3),
        (grid_graph(4, 4), 4),
    ])
    def test_domination_number(self, g, gamma):
        assert domination_number(g) == gamma

    def test_has_dominating_set_threshold(self):
        g = path_graph(7)
        assert not has_dominating_set(g, 2)
        assert has_dominating_set(g, 3)
        assert not has_dominating_set(g, -1)
        assert not has_dominating_set(g, 0)

    def test_has_dominating_set_matches_oracle_on_census(self):
        for rec in census(7):
            g = rec.graph
            for k in range(-1, g.n + 2):
                assert has_dominating_set(g, k) == has_dominating_set_oracle(g, k), \
                    (rec.graph_id, k)

    @settings(derandomize=True, max_examples=40)
    @given(random_graphs(max_n=10))
    def test_has_dominating_set_matches_oracle(self, g):
        for k in range(-1, g.n + 2):
            assert has_dominating_set(g, k) == has_dominating_set_oracle(g, k), k

    @settings(derandomize=True, max_examples=60)
    @given(any_graphs(max_n=8), st.data())
    def test_dominating_sets_lex_matches_brute_force(self, g, data):
        allowed = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        for k in range(-1, g.n + 2):
            assert list(dominating_sets_lex(g, k, allowed)) == \
                dominating_sets_brute(g, k, allowed), (allowed, k)
            assert list(dominating_sets_lex(g, k)) == \
                dominating_sets_brute(g, k, g.full_mask), k

    def test_dominating_sets_of_the_empty_graph(self):
        g = Graph(0, [])
        assert [list(dominating_sets_lex(g, k)) for k in (-1, 0, 1)] == [[], [0], []]

    @settings(derandomize=True, max_examples=30)
    @given(random_graphs(max_n=6))
    def test_numbers_match_brute_force(self, g):
        assert independence_number(g) == brute_alpha(g)
        assert domination_number(g) == brute_gamma(g)

    @settings(derandomize=True, max_examples=30)
    @given(random_graphs(max_n=7))
    def test_gamma_at_most_alpha(self, g):
        assert domination_number(g) <= independence_number(g)

    @settings(derandomize=True, max_examples=30)
    @given(random_graphs(max_n=7), st.data())
    def test_dominating_predicate_against_brute(self, g, data):
        s = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        assert is_dominating(g, s) == brute_dominating(g, s)


class TestCartesianProduct:
    def test_c4_as_product(self):
        p2 = path_graph(2)
        prod = cartesian_product(p2, p2)
        assert prod.n == 4 and len(prod.edges) == 4
        assert all(prod.degree(v) == 2 for v in range(4))

    def test_edge_count_formula(self):
        g, h = path_graph(3), cycle_graph(4)
        prod = cartesian_product(g, h)
        assert prod.n == 12
        assert len(prod.edges) == g.n * len(h.edges) + h.n * len(g.edges)

    def test_index_coords_round_trip(self):
        # vertex (a, b) of g x h has flat id a * h.n + b
        g, h = path_graph(3), cycle_graph(5)
        prod = cartesian_product(g, h)
        for x in range(prod.n):
            a, b = divmod(x, h.n)
            for y in range(prod.n):
                c, d = divmod(y, h.n)
                assert prod.has_edge(x, y) == ((a == c and h.has_edge(b, d))
                                               or (b == d and g.has_edge(a, c)))

    def test_grid_is_path_product(self):
        prod = cartesian_product(path_graph(4), path_graph(3))
        assert prod == grid_graph(4, 3)

    def test_edges_reach_the_constructor_strictly_ascending(self, monkeypatch):
        # so Graph checks them column by column, not edge by edge
        pairs = [(path_graph(3), cycle_graph(5)), (complete_graph(4), star_graph(3)),
                 (cycle_graph(6), path_graph(1)), (Graph(3, []), path_graph(4)),
                 (star_graph(4), complete_graph(5))]
        handed = []
        real = graph_core.Graph

        def recording(n, edges):
            edges = list(edges)
            handed.append(edges)
            return real(n, edges)

        monkeypatch.setattr(graph_core, "Graph", recording)
        products = [cartesian_product(g, h) for g, h in pairs]
        monkeypatch.undo()
        assert len(handed) == len(pairs)
        for (g, h), edges, prod in zip(pairs, handed, products):
            assert all(a < b for a, b in zip(edges, edges[1:])), (g, h)
            expected = [(x, y) for x in range(prod.n) for y in range(x + 1, prod.n)
                        if (x // h.n == y // h.n and h.has_edge(x % h.n, y % h.n))
                        or (x % h.n == y % h.n and g.has_edge(x // h.n, y // h.n))]
            assert list(prod.edges) == expected


CAN_SPLIT = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) >= 2)
needs_two_cores = pytest.mark.skipif(not CAN_SPLIT, reason="needs os.fork and two CPUs")


SPLIT_MODES = (
    "import os, sys\n"
    "forks = []\n"
    "if sys.argv[1] == 'serial':\n"
    "    del os.fork\n"
    "else:\n"
    "    real_fork = os.fork\n"
    "    os.fork = lambda: forks.append(1) or real_fork()\n"
)


def run_serial_and_forked(body: str, *argv: str) -> dict[str, tuple[str, str]]:
    """Run the script body in two fresh processes, one without os.fork, so
    every map runs in-process, and one that counts its forks.  Returns
    each run's stdout and its stderr followed by its fork count; the body
    sees its argv from sys.argv[2:]."""
    env = {**os.environ, "PYTHONPATH": str(Path(swapsets.__file__).parent.parent)}
    script = SPLIT_MODES + body + "sys.stderr.write(f'forks={len(forks)}')\n"
    runs = {}
    for mode in ("serial", "forked"):
        proc = subprocess.run([sys.executable, "-c", script, mode, *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs[mode] = proc.stdout, proc.stderr
    assert runs["serial"][1].endswith("forks=0")
    assert runs["forked"][1].endswith("forks=0") != CAN_SPLIT
    return runs


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitMap:
    def test_keeps_order(self):
        items = list(range(5 * _SPLIT_MIN_ITEMS + 3))
        assert _split_map(lambda x: (x, [x * x], {"x": str(x)}), items) == [
            (x, [x * x], {"x": str(x)}) for x in items]
        assert _split_map(abs, []) == []
        assert_no_child_left()

    @needs_two_cores
    def test_odd_items_run_in_one_child(self):
        parent = os.getpid()
        items = list(range(2 * _SPLIT_MIN_ITEMS + 1))
        pids = _split_map(lambda _: os.getpid(), items)
        assert len(pids) == len(items)
        assert set(pids[::2]) == {parent}
        assert len(set(pids[1::2])) == 1 and pids[1] != parent
        assert_no_child_left()

    def test_short_lists_never_fork(self):
        parent = os.getpid()
        for size in (0, 1, _SPLIT_MIN_ITEMS - 1):
            assert _split_map(lambda _: os.getpid(), list(range(size))) == [parent] * size

    def test_child_failure_raises_in_the_parent(self, capfd):
        items = list(range(2 * _SPLIT_MIN_ITEMS))

        def fn(x):
            if x % 2:
                raise BudgetError("the child's share")
            return x

        with pytest.raises(BudgetError, match="the child's share"):
            _split_map(fn, items)
        out, err = capfd.readouterr()
        assert (out, err) == ("", "")
        assert_no_child_left()

    def test_child_that_dies_without_data_is_replaced(self):
        parent = os.getpid()
        items = list(range(2 * _SPLIT_MIN_ITEMS))

        def fn(x):
            if os.getpid() != parent:
                os._exit(0)  # a clean exit, but the parent gets no data
            return -x

        assert _split_map(fn, items) == [-x for x in items]
        assert_no_child_left()

    def test_parent_failure_kills_and_reaps_the_child(self):
        items = list(range(2 * _SPLIT_MIN_ITEMS))

        def fn(x):
            if x % 2 == 0:
                raise ConstructionError("the parent's share")
            if x == 1:
                time.sleep(60)  # a child left running would hold the parent here
            return x

        started = time.perf_counter()
        with pytest.raises(ConstructionError, match="the parent's share"):
            _split_map(fn, items)
        assert time.perf_counter() - started < 30
        assert_no_child_left()

    def test_without_fork_the_map_is_serial(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        parent = os.getpid()
        assert _split_map(lambda _: os.getpid(), list(range(3 * _SPLIT_MIN_ITEMS))) == [
            parent] * (3 * _SPLIT_MIN_ITEMS)

    def test_a_failed_fork_maps_in_process(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        parent = os.getpid()
        fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
        assert _split_map(lambda _: os.getpid(), list(range(3 * _SPLIT_MIN_ITEMS))) == [
            parent] * (3 * _SPLIT_MIN_ITEMS)
        if fds:
            assert len(os.listdir("/proc/self/fd")) == len(fds)  # the pipe is closed

    def test_a_second_thread_keeps_the_map_serial(self):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            parent = os.getpid()
            pids = _split_map(lambda _: os.getpid(), list(range(3 * _SPLIT_MIN_ITEMS)))
        finally:
            release.set()
            waiter.join(30)
        assert not waiter.is_alive()
        assert pids == [parent] * (3 * _SPLIT_MIN_ITEMS)

    def test_one_cpu_keeps_the_map_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        parent = os.getpid()
        assert _split_map(lambda _: os.getpid(), list(range(3 * _SPLIT_MIN_ITEMS))) == [
            parent] * (3 * _SPLIT_MIN_ITEMS)
