"""Acceptance gate: nine numbered end-to-end checks, one test each.

Each test prints a single CRITERION line summarizing its outcome before
asserting, so failures carry their evidence in the captured output.  No
randomness anywhere; repeated runs must produce identical results.
"""

import json
import subprocess
import sys
import time

from helpers import brute_alpha, brute_ddm, enumerate_trees, star_partition_weight_oracle
from swapsets import (
    FINITE,
    INFINITE,
    alpha2_swap,
    alpha3_bound_check,
    alpha3_swap_with_stage,
    canonical_id,
    cartesian_product,
    conjecture_scan,
    cycle_graph,
    dd_m_exact,
    dd_m_tree,
    domination_number,
    enumerate_connected_graphs,
    format_graph,
    gamma_grid_dp,
    grid_swap_construct,
    independence_number,
    is_strong_graph,
    is_weak_tree,
    p3_strip_swap,
    path_graph,
    perfect_dom_member,
    product_question_scan,
    product_swap_general,
    s_weight,
    star_graph,
    star_product_swap,
    subdivided_doubled_triangle,
    swap_pair_below,
    verify_certificate,
    weak_reduction,
)
from swapsets.cli import _dumps


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_constants():
    t0 = time.time()
    p4 = dd_m_exact(path_graph(4))
    k13 = dd_m_exact(star_graph(3))
    c4 = dd_m_exact(cycle_graph(4))
    nine = subdivided_doubled_triangle()
    alpha_nine = independence_number(nine)
    nine_result = dd_m_exact(nine)
    gamma_nine = domination_number(nine)
    elapsed = time.time() - t0
    brute_nine = brute_ddm(nine)

    basics_ok = (p4.status == FINITE and p4.k == 2
                 and k13.status == INFINITE
                 and c4.status == FINITE and c4.k == 2
                 and alpha_nine == 6)
    cert = nine_result.certificate
    # gamma = 3 rules out a smaller pair; D={0,1,5}, D'={2,3,4} is one of size 3
    nine_ok = (nine_result.status == FINITE and nine_result.k == 3
               and verify_certificate(nine, cert)
               and gamma_nine == 3 and brute_nine == 3)
    announce(1, basics_ok and nine_ok and elapsed < 1.0,
             f"P4=2 K1,3=inf C4=2 alpha(9-vertex)=6 ok={basics_ok}; "
             f"9-vertex expected 3 with gamma=3, got status="
             f"{nine_result.status} k={nine_result.k} gamma={gamma_nine} "
             f"brute={brute_nine}; {elapsed:.2f}s")
    assert elapsed < 1.0
    assert basics_ok
    assert nine_result.status == FINITE and nine_result.k == 3, nine_result
    assert verify_certificate(nine, cert), cert
    assert gamma_nine == 3 and brute_nine == 3


def test_criterion_2_star_products():
    t0 = time.time()
    failures = []
    for p in range(1, 6):
        for q in range(1, p + 1):
            if p + q > 6:
                continue
            expected = max(2, p + q - 1)
            g, cert = star_product_swap(p, q)
            built = cartesian_product(star_graph(p), star_graph(q))
            exact = dd_m_exact(built)
            if not (verify_certificate(g, cert) and cert.size() == expected
                    and exact.status == FINITE and exact.k == expected):
                failures.append((p, q, cert.size(), exact.k))
    elapsed = time.time() - t0
    announce(2, not failures and elapsed < 120,
             f"9 (p,q) pairs, exact swap number max(2,p+q-1); {elapsed:.1f}s")
    assert elapsed < 120
    assert not failures, failures


def test_criterion_3_trees_exhaustive():
    t0 = time.time()
    trees = [t for n in range(2, 11) for t in enumerate_trees(n)]
    assert len(trees) == 200  # non-isomorphic non-trivial trees, n <= 10
    failures = []
    for t in trees:
        exact = dd_m_exact(t)
        fast = dd_m_tree(t)
        weight, _ = s_weight(t)
        red = weak_reduction(t)
        alpha = brute_alpha(t)
        weak = is_weak_tree(t)
        checks = {
            "a-exists-iff-weak": (exact.status == FINITE) == weak,
            "b-tree-dp-matches-exact": fast.status == exact.status
                and (fast.status != FINITE or fast.k == exact.k),
            "c-weight-matches-oracle": weight == star_partition_weight_oracle(t),
            "d-reduction-additivity":
                weight == s_weight(red.reduced)[0] + len(red.removed)
                if red.reduced.n >= 2 else not red.removed,
            "e1-alpha-eq-ddm-iff-weak-and-half":
                (weak and 2 * weight == t.n)
                == (exact.status == FINITE and exact.k == alpha),
            "e2-alpha-eq-eviction-iff-reduced-half":
                (2 * s_weight(red.reduced)[0] == red.reduced.n
                 if red.reduced.n >= 2 else False) == (alpha == weight),
            "f-ddm-at-most-alpha": exact.status != FINITE or exact.k <= alpha,
        }
        for name, ok in checks.items():
            if not ok:
                failures.append((name, format_graph(t)))
    elapsed = time.time() - t0
    announce(3, not failures and elapsed < 300,
             f"{len(trees)} trees, 7 checks each; {elapsed:.1f}s")
    assert elapsed < 300
    assert not failures, failures[:5]


def test_criterion_4_grids():
    t0 = time.time()
    failures = []
    size_16_12 = None
    for n in range(8, 31):
        for m in range(n, 31):
            g, cert, _ = grid_swap_construct(m, n)
            bound = ((n + 2) * (m + 3)) // 5
            if not (verify_certificate(g, cert) and cert.size() <= bound):
                failures.append((m, n, cert.size(), bound))
            if (m, n) == (16, 12):
                size_16_12 = cert.size()
    elapsed = time.time() - t0
    announce(4, not failures and size_16_12 <= 53 and elapsed < 60,
             f"276 grids verified within the density bound; "
             f"(16,12) size {size_16_12}; {elapsed:.1f}s")
    assert elapsed < 60
    assert not failures, failures[:5]
    assert size_16_12 <= 53


def test_criterion_5_p3_strips():
    t0 = time.time()
    failures = []
    for k in range(3, 26):
        g, cert = p3_strip_swap(k)
        gamma = gamma_grid_dp(3, 4 * k + 1)
        if not (verify_certificate(g, cert) and cert.size() == 3 * k + 2
                and gamma == 3 * k + 1):
            failures.append((k, cert.size(), gamma))
    elapsed = time.time() - t0
    announce(5, not failures and elapsed < 60,
             f"strips k=3..25 at size 3k+2 with domination number 3k+1; "
             f"{elapsed:.1f}s")
    assert elapsed < 60
    assert not failures, failures


def test_criterion_6_perfect_domination_window():
    t0 = time.time()
    bad = []
    for t in range(5):
        for x in range(50):
            for y in range(50):
                hits = sum(perfect_dom_member(a, b, t)
                           for a, b in ((x, y), (x - 1, y), (x + 1, y),
                                        (x, y - 1), (x, y + 1)))
                if hits != 1:
                    bad.append((t, x, y, hits))
    elapsed = time.time() - t0
    announce(6, not bad and elapsed < 1.0,
             f"every cell of a 50x50 window dominated exactly once for all "
             f"5 shifts; {elapsed:.2f}s")
    assert elapsed < 1.0
    assert not bad, bad[:5]


def test_criterion_7_small_alpha_exhaustive():
    t0 = time.time()

    alpha2_failures = []
    checked2 = 0
    for n in range(4, 9):
        for g in enumerate_connected_graphs(n):
            if independence_number(g) != 2:
                continue
            checked2 += 1
            cert = alpha2_swap(g)
            if not (verify_certificate(g, cert) and cert.size() <= 2):
                alpha2_failures.append(canonical_id(g))

    bound = alpha3_bound_check(8)

    # a strong stem (a vertex with two pendant leaves) rules out every swap
    # pair: with the stem in D or D', both leaves lie in the other set and
    # need the stem as their partner; with the stem in neither, both leaves
    # lie in D and in D'.  Every other graph here has a pair of size <= 3,
    # and the matched-partner stage finds one without the exact solver.
    existence_failures = []
    strong_graphs = []
    checked3 = 0
    for n in range(6, 9):
        for g in enumerate_connected_graphs(n):
            if independence_number(g) != 3:
                continue
            checked3 += 1
            if is_strong_graph(g):
                strong_graphs.append(format_graph(g).strip().replace("\n", " / "))
                absent = swap_pair_below(g, g.n // 2 + 1)
                if absent.status != INFINITE:
                    existence_failures.append(
                        ("strong graph has a swap set", canonical_id(g)))
                continue
            cert, stage = alpha3_swap_with_stage(g)
            if stage != "matched-dominating":
                existence_failures.append((f"stage {stage}", canonical_id(g)))
            elif not verify_certificate(g, cert):
                existence_failures.append(
                    ("certificate fails verification", canonical_id(g)))
            elif cert.size() > 3:
                existence_failures.append(
                    (f"certificate of size {cert.size()}", canonical_id(g)))

    conjectures = conjecture_scan(8)
    elapsed = time.time() - t0

    print(f"  alpha=2 certificates: {checked2} graphs, "
          f"{len(alpha2_failures)} failures")
    print(f"  alpha=3 swap-number bound: {len(bound.records)} graphs, "
          f"{len(bound.counterexamples)} violations")
    print(f"  alpha=3 existence: {checked3} graphs, "
          f"{len(strong_graphs)} strong without any swap set, "
          f"{len(existence_failures)} failures")
    if strong_graphs:
        print(f"  smallest strong graph: {strong_graphs[0]}")
    print(f"  swap number vs independence number: "
          f"{len(conjectures.counterexamples)} violations")
    announce(7, not (alpha2_failures or bound.counterexamples
                     or existence_failures or conjectures.counterexamples)
             and len(strong_graphs) == 12 and elapsed < 1800,
             f"exhaustive to n=8; {elapsed:.1f}s")
    assert elapsed < 1800
    assert not alpha2_failures, alpha2_failures[:5]
    assert not bound.counterexamples, bound.counterexamples[:2]
    assert not conjectures.counterexamples, conjectures.counterexamples[:2]
    assert not existence_failures, existence_failures[:5]
    assert len(strong_graphs) == 12, strong_graphs


def test_criterion_8_products():
    t0 = time.time()
    factors = []
    for n in range(2, 9):
        if 2 * n <= 24:
            factors.extend(enumerate_connected_graphs(n))
    construct_failures = []
    pairs = 0
    for i, g in enumerate(factors):
        for h in factors[i:]:
            if g.n * h.n > 24:
                break  # factors are ordered by n, so every later h is larger
            pairs += 1
            prod, cert = product_swap_general(g, h)
            if not verify_certificate(prod, cert):
                construct_failures.append((canonical_id(g), canonical_id(h)))
    report = product_question_scan(24)
    elapsed = time.time() - t0
    announce(8, not construct_failures and report.gg_violations == 0
             and elapsed < 600,
             f"{pairs} factor pairs constructed and verified; scan of "
             f"{len(report.rows)} pairs found {report.gg_violations} "
             f"gamma*gamma violations; {elapsed:.1f}s")
    assert elapsed < 600
    assert not construct_failures, construct_failures[:5]
    assert report.gg_violations == 0


def test_criterion_9_determinism():
    t0 = time.time()
    commands = [
        ["compute", "c8"],
        ["compute", "grid:4x4"],
        ["tree", "p8"],
        ["construct", "star-product", "3", "2"],
        ["construct", "grid", "12", "10"],
        ["construct", "p3-strip", "5"],
        ["gamma-dp", "3", "13"],
        ["scan", "alpha2", "--max-n", "5"],
        ["scan", "conjectures", "--max-n", "5"],
        ["report", "grid", "--max-mn", "10"],
    ]
    mismatches = []
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "swapsets.cli"] + argv,
                               capture_output=True) for _ in range(2)]
        if runs[0].stdout != runs[1].stdout or runs[0].returncode != runs[1].returncode:
            mismatches.append(argv)
    library_repeats = [
        _dumps(conjecture_scan(6).to_json_dict())
        == _dumps(conjecture_scan(6).to_json_dict()),
        product_question_scan(12).to_tsv() == product_question_scan(12).to_tsv(),
        json.dumps(dd_m_exact(cycle_graph(8)).to_json_dict())
        == json.dumps(dd_m_exact(cycle_graph(8)).to_json_dict()),
    ]
    elapsed = time.time() - t0
    announce(9, not mismatches and all(library_repeats),
             f"{len(commands)} commands and 3 library calls repeated "
             f"byte-identically; {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert all(library_repeats)
