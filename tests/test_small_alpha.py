import hashlib
import random
import subprocess
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    alpha3_bound_oracle,
    canonical_form_oracle,
    census_oracle,
    complete_graph,
    full_extension_children,
    scan_alpha3_oracle,
)
from swapsets import (
    BudgetError,
    ContractError,
    FINITE,
    INFINITE,
    Graph,
    SwapCertificate,
    alpha2_swap,
    alpha3_bound_check,
    alpha3_swap_with_stage,
    canonical_form,
    canonical_id,
    census,
    conjecture_scan,
    cycle_graph,
    dd_m_exact,
    domination_number,
    enumerate_connected_graphs,
    grid_graph,
    independence_number,
    is_connected,
    is_strong_graph,
    path_graph,
    star_graph,
    subdivided_doubled_triangle,
    swap_pair_below,
    verify_certificate,
)
import swapsets.small_alpha as small_alpha
from swapsets.cli import _dumps, _scan_alpha3
from test_graph_core import random_graphs, run_serial_and_forked

CENSUS_8_SHA256 = "f88c0ca0b3ca3b7310bc5a2c25b738a149179c676f8b573688e9354b6c4eaf9e"
STRONG_STEM_EXAMPLE = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 5)])


def label_generators(g):
    """The automorphism generators the labelling search finds on g."""
    vertices = range(g.n)
    return small_alpha._label(list(map(g.neighbors, vertices)),
                              list(map(g.open_mask, vertices)), g.edges)[1]


def generated_group(generators, n):
    """Every vertex map the generators generate, as image tuples."""
    group = [tuple(range(n))]
    seen = set(group)
    for sigma in group:
        for gen in generators:
            image = tuple(gen[v] for v in sigma)
            if image not in seen:
                seen.add(image)
                group.append(image)
    return seen


class TestCanonicalForm:
    @settings(derandomize=True, max_examples=50)
    @given(random_graphs(max_n=7), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(g) == canonical_form(relabeled)

    def test_separates_non_isomorphic(self):
        forms = {canonical_form(g) for g in
                 (path_graph(5), cycle_graph(5), star_graph(4),
                  complete_graph(5), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]))}
        assert len(forms) == 5

    def test_id_format(self):
        assert canonical_id(path_graph(2)) == f"2-{canonical_form(path_graph(2)):x}"

    def test_matches_oracle_on_every_child(self):
        # every child the unpruned generator builds on up to seven vertices
        for n in range(1, 7):
            for parent in enumerate_connected_graphs(n):
                for child in full_extension_children(parent):
                    assert canonical_form(child) == canonical_form_oracle(child)

    def test_matches_oracle_on_edge_cases(self):
        # every labelled graph on up to five vertices, so the empty graph,
        # regular root colorings and disconnected graphs, then the
        # nine-vertex example, whose root coloring is not discrete
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                assert canonical_form(g) == canonical_form_oracle(g)
        square = cycle_graph(4).edges
        two_squares = Graph(8, [*square, *((u + 4, v + 4) for u, v in square)])
        for g in (two_squares, Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4)]),
                  subdivided_doubled_triangle()):
            assert canonical_form(g) == canonical_form_oracle(g)

    @settings(derandomize=True, max_examples=100)
    @given(random_graphs(max_n=8), st.randoms(use_true_random=False))
    def test_matches_oracle_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(relabeled) == canonical_form_oracle(g)


class TestEnumeration:
    def test_counts_match_census(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in expected.items():
            assert len(enumerate_connected_graphs(n)) == count

    def test_all_connected_and_distinct(self):
        for n in range(1, 7):
            graphs = enumerate_connected_graphs(n)
            assert all(g.n == n and is_connected(g) for g in graphs)
            assert len({canonical_form(g) for g in graphs}) == len(graphs)

    def test_matches_labeled_enumeration(self):
        for n in range(1, 6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            seen = set()
            for mask in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                if is_connected(g):
                    seen.add(canonical_form(g))
            assert len(seen) == len(enumerate_connected_graphs(n))

    def test_cap(self):
        with pytest.raises(BudgetError):
            enumerate_connected_graphs(9)

    def test_deterministic_order(self):
        assert enumerate_connected_graphs(5) == enumerate_connected_graphs(5)


class TestCensus:
    def test_matches_unpruned_generator(self):
        records = census(7)
        expected = census_oracle(7)
        assert len(records) == len(expected)
        for r, (graph, graph_id) in zip(records, expected):
            assert (r.graph.n, r.graph.edges, r.graph_id) == (graph.n, graph.edges, graph_id)

    def test_canonical_form_calls(self):
        # counts the labellings, _label calls, behind canonical_form and the
        # census, in a fresh process, so no census level is cached from
        # earlier tests, and without os.fork, so no call is made in a worker
        # the counter cannot see; the unpruned generator makes 7,816 here,
        # and the census before it dropped later copies unlabelled 4,160
        script = (
            "import os, sys\n"
            "del os.fork\n"
            "import swapsets.small_alpha as small_alpha\n"
            "calls = []\n"
            "real = small_alpha._label\n"
            "small_alpha._label = lambda *args: calls.append(1) or real(*args)\n"
            "small_alpha.census(7)\n"
            "sys.stdout.write(str(len(calls)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.stdout == "1486", proc.stderr

    def test_refine_calls(self):
        # a fresh process without os.fork, as above; the refinement that
        # starts from the uniform coloring and confirms discrete colorings
        # makes 12,582, the search without pruning at the root 9,148, and
        # the census that labelled every job 8,544
        script = (
            "import os, sys\n"
            "del os.fork\n"
            "import swapsets.small_alpha as small_alpha\n"
            "calls = []\n"
            "real = small_alpha._refine\n"
            "small_alpha._refine = lambda *args: calls.append(1) or real(*args)\n"
            "small_alpha.census(7)\n"
            "sys.stdout.write(str(len(calls)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.stdout == "3370", proc.stderr

    def test_dropped_children_copy_an_earlier_parent(self):
        # every job is labelled here, so each drop is checked against the
        # first job of its code: that job has a smaller parent index, so a
        # dropped child is never the first of its class, and the first kept
        # child of each code is the unpruned generator's representative
        oracle = census_oracle(7)
        dropped = []
        for n in range(2, 8):
            top = n - 1
            parents = small_alpha._classes(top)
            shapes = [(list(map(rec.graph.neighbors, range(top))),
                       list(map(rec.graph.open_mask, range(top))), rec.graph.edges)
                      for rec, _ in parents]
            last = {tuple(sorted(map(len, adj))): p for p, (adj, _, _) in enumerate(shapes)}
            first_parent = {}
            kept = {}
            drops = 0
            for p, ((adj, opens, edges), (_, generators)) in enumerate(zip(shapes, parents)):
                for mask in small_alpha._orbit_least_masks(top, generators):
                    child = small_alpha._child(adj, opens, edges, mask)
                    code = small_alpha._label(*child)[0]
                    first_parent.setdefault(code, p)
                    if small_alpha._copies_an_earlier_parent(adj, opens, mask, p, last):
                        assert first_parent[code] < p, (n, p, mask)
                        drops += 1
                    else:
                        kept.setdefault(code, Graph(n, child[2]).edges)
            dropped.append(drops)
            assert [(kept[code], small_alpha._graph_id(n, code)) for code in sorted(kept)] == [
                (graph.edges, graph_id) for graph, graph_id in oracle if graph.n == n]
        assert dropped == [0, 0, 2, 23, 215, 2434]

    def test_census_8_matches_recorded_digest(self):
        # ids, orders and representative edges of every census(8) record,
        # in order; the oracle comparisons above stop at n = 7
        records = census(8)
        digest = hashlib.sha256()
        for r in records:
            digest.update(f"{r.graph_id}\t{r.n}\t{r.graph.edges}\n".encode())
        assert len(records) == 12113
        assert digest.hexdigest() == CENSUS_8_SHA256

    def test_forked_and_serial_census_8_agree(self):
        body = (
            "import hashlib\n"
            "from swapsets import census\n"
            "digest = hashlib.sha256()\n"
            "for r in census(8):\n"
            "    digest.update(f'{r.graph_id}\\t{r.n}\\t{r.graph.edges}\\n'.encode())\n"
            "print(digest.hexdigest())\n"
        )
        runs = run_serial_and_forked(body)
        assert runs["serial"][0] == runs["forked"][0] == CENSUS_8_SHA256 + "\n"

    def test_census_8_after_failed_workers(self):
        # every worker exits before sending data, so the parent labels the
        # worker's jobs of each level itself, after its own; the merge, in
        # job order, must still keep the records of the serial loop
        script = (
            "import hashlib, os, sys\n"
            "real_fork = os.fork\n"
            "def failing_fork():\n"
            "    pid = real_fork()\n"
            "    if pid == 0:\n"
            "        os._exit(1)\n"
            "    return pid\n"
            "os.fork = failing_fork\n"
            "from swapsets import census\n"
            "digest = hashlib.sha256()\n"
            "for r in census(8):\n"
            "    digest.update(f'{r.graph_id}\\t{r.n}\\t{r.graph.edges}\\n'.encode())\n"
            "sys.stdout.write(digest.hexdigest())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert (proc.stdout, proc.stderr) == (CENSUS_8_SHA256, "")

    def test_refine_calls_on_cycles_do_not_grow_faster_than_n(self):
        # C_n is vertex-transitive: once two children of the root are
        # searched, their leaves give a rotation and a reflection and every
        # other child of the root is skipped unrefined, so the count stays
        # at 7; without that pruning it was 3n + 1
        calls = []
        real = small_alpha._refine

        def counting(*args):
            calls.append(1)
            return real(*args)

        counts = []
        for n in (10, 20, 40, 80):
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(small_alpha, "_refine", counting)
                canonical_form(cycle_graph(n))
            counts.append(len(calls))
        assert counts == [7, 7, 7, 7]

    def test_records_at_the_cap_keep_no_generators(self):
        # no level extends the records at the cap, so only those below keep
        # their automorphism generators
        cap = small_alpha.MAX_CENSUS_N
        assert all(generators == () for _, generators in small_alpha._classes(cap))
        assert any(generators for _, generators in small_alpha._classes(cap - 1))

    def test_label_generators_match_brute_force(self):
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                edges = set(g.edges)
                brute = {p for p in permutations(range(n))
                         if all(tuple(sorted((p[u], p[v]))) in edges for u, v in g.edges)}
                assert generated_group(label_generators(g), n) == brute

    def test_label_generators_reach_known_group_orders(self):
        # graphs outside the census; between them they reach both the twin
        # swaps and the maps between leaves of equal encoding
        outer = [(i, (i + 1) % 5) for i in range(5)]
        petersen = Graph(10, outer + [(i, i + 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        cube = Graph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
        k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        cases = [(petersen, 120), (cube, 48), (k33, 72), (cycle_graph(9), 18),
                 (complete_graph(8), 40320), (star_graph(7), 5040), (grid_graph(4, 4), 8)]
        for g, order in cases:
            edges = set(g.edges)
            generators = label_generators(g)
            for sigma in generators:
                assert all(tuple(sorted((sigma[u], sigma[v]))) in edges for u, v in g.edges)
            assert len(generated_group(generators, g.n)) == order
        # a twin class yields its swaps once, not again at each level below,
        # so a large complete graph's generators take n - 1 lists, not n**2 / 2
        assert len(label_generators(complete_graph(8))) == 7

    def test_orbit_least_masks_match_brute_force(self):
        # the least mask of each orbit under the whole automorphism group,
        # for every census graph up to six vertices (the parents of census(7))
        for n in range(1, 7):
            for _, generators in small_alpha._classes(n):
                group = generated_group(generators, n)
                least = [mask for mask in range(1, 1 << n)
                         if all(sum(1 << sigma[v] for v in range(n) if mask >> v & 1) >= mask
                                for sigma in group)]
                assert list(small_alpha._orbit_least_masks(n, generators)) == least

    def test_ids_and_order_match_enumeration(self):
        records = census(7)
        assert [r.graph_id for r in records] == [canonical_id(r.graph) for r in records]
        assert [r.graph for r in records] == [
            g for n in range(1, 8) for g in enumerate_connected_graphs(n)]

    def test_invariants_match_direct_computation(self):
        for r in census(6):
            result = dd_m_exact(r.graph)
            assert r.n == r.graph.n
            assert r.alpha == independence_number(r.graph)
            assert r.gamma == domination_number(r.graph)
            assert r.ddm == (result.k if result.status == FINITE else "infinity")
            assert r.cert_size == (result.certificate.size()
                                   if result.status == FINITE else None)

    def test_cap_checked_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a graph labelled above the cap")

        monkeypatch.setattr(small_alpha, "_label", refuse)
        for scan in (census, enumerate_connected_graphs, alpha3_bound_check,
                     conjecture_scan):
            with pytest.raises(BudgetError):
                scan(9)

    def test_scans_reuse_census_ids(self, monkeypatch):
        calls = []
        real = small_alpha.canonical_id

        def counted(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(small_alpha, "canonical_id", counted)
        conjecture_scan(6)
        assert calls == [9]  # the nine-vertex example only


class TestAlpha2Swap:
    def test_c5_certificate(self):
        cert = alpha2_swap(cycle_graph(5))
        assert cert == SwapCertificate.build([0, 2], [1, 3], [(0, 1), (2, 3)])

    def test_exhaustive_at_most_two(self):
        for n in range(4, 7):
            for g in enumerate_connected_graphs(n):
                if independence_number(g) != 2:
                    continue
                cert = alpha2_swap(g)
                assert verify_certificate(g, cert)
                assert cert.size() <= 2

    @pytest.mark.parametrize("g", [
        complete_graph(4),          # alpha = 1
        path_graph(4),              # fine alpha but tested below
    ])
    def test_preconditions(self, g):
        if independence_number(g) == 2 and g.n > 3:
            assert verify_certificate(g, alpha2_swap(g))
        else:
            with pytest.raises(ContractError):
                alpha2_swap(g)

    def test_small_or_disconnected_rejected(self):
        with pytest.raises(ContractError):
            alpha2_swap(cycle_graph(3))
        with pytest.raises(ContractError):
            alpha2_swap(Graph(6, [(0, 1), (2, 3), (4, 5)]))


class TestAlpha3Swap:
    def test_c6_succeeds(self):
        g = cycle_graph(6)
        cert, stage = alpha3_swap_with_stage(g)
        assert verify_certificate(g, cert)
        assert stage in ("matched-dominating", "fallback")

    def test_strong_stem_example_has_no_swap_set(self):
        g = STRONG_STEM_EXAMPLE
        assert independence_number(g) == 3
        assert is_strong_graph(g)
        assert dd_m_exact(g).status != FINITE
        assert alpha3_swap_with_stage(g) is None

    def test_exhaustive_matches_exact_solver(self):
        for n in range(6, 8):
            for g in enumerate_connected_graphs(n):
                if independence_number(g) != 3:
                    continue
                finite = dd_m_exact(g).status == FINITE
                if finite:
                    cert, _ = alpha3_swap_with_stage(g)
                    assert verify_certificate(g, cert)
                    assert cert.size() <= 3
                else:
                    assert is_strong_graph(g)
                    assert alpha3_swap_with_stage(g) is None

    def test_random_larger_graphs_take_the_matched_stage(self):
        # seeded graphs of 9..14 vertices, beyond the census: dense random
        # graphs, and three cliques (a one-vertex clique is often a pendant
        # leaf) joined by sparse cross edges
        rng = random.Random(15)
        graphs = []
        while len(graphs) < 200:
            n = rng.randint(9, 14)
            if rng.random() < 0.5:
                p = rng.uniform(0.5, 0.8)
                edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
            else:
                cliques = [[] for _ in range(3)]
                for v in range(n):
                    cliques[rng.randrange(3)].append(v)
                edges = {(u, v) for c in cliques for i, u in enumerate(c) for v in c[i + 1:]}
                edges.update((u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.15)
            g = Graph(n, sorted(edges))
            if is_connected(g) and independence_number(g) == 3 and not is_strong_graph(g):
                graphs.append(g)
        assert min(g.n for g in graphs) == 9 and max(g.n for g in graphs) == 14
        for g in graphs:
            cert, stage = alpha3_swap_with_stage(g)
            assert stage == "matched-dominating"
            assert cert.size() == 3
            if g.n <= 12:
                assert dd_m_exact(g).status == FINITE

    @pytest.mark.parametrize("m, leaves", [
        *((m, 2) for m in range(2, 7)),   # alpha = 3
        *((m, 3) for m in range(2, 6)),   # alpha = 4
        *((m, 4) for m in range(2, 5)),   # alpha = 5
    ])
    def test_clique_with_pendant_leaves_has_no_swap_set(self, m, leaves):
        # K_m with alpha - 1 pendant leaves on one vertex: a strong stem at
        # every order, so no order forces a swap set for a fixed alpha
        g = Graph(m + leaves, [*complete_graph(m).edges,
                               *((0, m + i) for i in range(leaves))])
        assert independence_number(g) == leaves + 1
        assert is_strong_graph(g)
        assert swap_pair_below(g, g.n // 2 + 1).status == INFINITE

    def test_preconditions(self):
        with pytest.raises(ContractError):
            alpha3_swap_with_stage(cycle_graph(5))  # too small
        with pytest.raises(ContractError):
            alpha3_swap_with_stage(cycle_graph(8))  # alpha = 4


class TestBoundCheck:
    def test_clean_to_seven(self):
        report = alpha3_bound_check(7)
        assert report.counterexamples == []
        assert all(r.alpha == 3 and r.ddm <= 3 for r in report.records)

    def test_scope_cap(self):
        with pytest.raises(BudgetError):
            alpha3_bound_check(9)


class TestAlpha3Solves:
    """The alpha-3 scans solve exactly only the records the matched-partner
    construction misses, and report what solving every record reported."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        """Serial fills; census records with no value cached, one fresh list
        per max_n that later calls share, as census's own records are
        shared; and the graphs dd_m_exact is called on."""
        real_census, real_solve = small_alpha.census, small_alpha.dd_m_exact
        lists: dict = {}
        solved = []

        def solve(g, *args, **kwargs):
            solved.append(g)
            return real_solve(g, *args, **kwargs)

        monkeypatch.setattr(small_alpha, "_split_map", lambda fn, items: list(map(fn, items)))
        monkeypatch.setattr(small_alpha, "census", lambda max_n: lists.setdefault(max_n, [
            small_alpha.CensusRecord(r.graph, r.graph_id) for r in real_census(max_n)]))
        monkeypatch.setattr(small_alpha, "dd_m_exact", solve)
        return lists, solved

    def test_solve_counts(self, fresh):
        _, solved = fresh
        _scan_alpha3(7)
        assert len(solved) == 16  # of 596 records with alpha 3
        assert sum(map(is_strong_graph, solved)) == 10
        solved.clear()
        alpha3_bound_check(8)
        assert len(solved) == 21  # of 6,459

    @pytest.mark.parametrize("max_n", [6, 7])
    def test_same_reports_as_solving_every_record(self, fresh, max_n):
        lists, _ = fresh
        scan = _scan_alpha3(max_n)
        bound = alpha3_bound_check(max_n)
        lists.clear()  # the oracles solve records of their own
        assert scan == scan_alpha3_oracle(max_n)
        records, counterexamples = alpha3_bound_oracle(max_n)
        assert [r.graph_id for r in bound.records] == [r.graph_id for r in records]
        assert bound.counterexamples == counterexamples


class TestConjectureScan:
    def test_no_counterexamples_to_seven(self):
        report = conjecture_scan(7)
        assert report.counterexamples == []

    def test_no_swap_table_shape(self):
        report = conjecture_scan(6)
        table = report.extras["no_swap_table"]
        assert table[1]["max_n"] == 1       # the single vertex
        assert table[2]["max_n"] == 3       # the path on three vertices
        assert all(entry["example"] for entry in table.values())

    def test_nine_vertex_entry_reports_finite_swap_number(self):
        extras = conjecture_scan(5).extras["nine_vertex_example"]
        assert extras["alpha"] == 6
        assert extras["ddm"] == 3
        assert extras["in_no_swap_table"] is False

    def test_tsv_and_json_deterministic(self):
        a, b = conjecture_scan(5), conjecture_scan(5)
        assert a.to_tsv() == b.to_tsv()
        assert _dumps(a.to_json_dict()) == _dumps(b.to_json_dict())

    def test_tsv_column_count(self):
        report = conjecture_scan(4)
        lines = report.to_tsv().rstrip("\n").split("\n")
        width = len(lines[0].split("\t"))
        assert all(len(line.split("\t")) == width for line in lines)
