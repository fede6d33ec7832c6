"""The three workloads: their items, seeded inputs and output checks.

An item is one `swapsets` command line.  Each item's check reads the
item's stdout (and any files it wrote) and judges it with certcheck, which
does not import swapsets; a check returns a list of problems, empty when
the output is right.  Expected exit codes and stdout digests are in
reference.json.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import certcheck

DEFAULT_SEED = 1


@dataclass
class Item:
    name: str
    argv: list[str]
    check: Callable[[bytes, Path], list[str]]
    seeded: bool = False  # stdout depends on --seed, so a digest holds only at DEFAULT_SEED
    vertices: int = 0  # input size, for the per-vertex growth metrics


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on n >= 2 vertices."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def hat_path(k: int) -> list[tuple[int, int]]:
    """hat(P_k): the path 0..k-1 with a pendant leaf k+i on each vertex i."""
    return [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)]


def write_edge_list(path: Path, n: int, edges) -> None:
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def _json(stdout: bytes):
    return json.loads(stdout.decode("utf-8"))


# ---------------------------------------------------------------------------
# census: exhaustive small-graph scans

def _check_conjectures_tsv(max_n: int):
    def check(stdout: bytes, _cwd: Path) -> list[str]:
        lines = stdout.decode("utf-8").splitlines()
        if not lines or lines[0] != "graph_id\tn\talpha\tgamma\tddm\tcert_size\tstage":
            return ["missing TSV header"]
        rows = [line.split("\t") for line in lines[1:]]
        if any(len(r) != 7 for r in rows):
            return ["row without 7 fields"]
        counts = {}
        problems = []
        for graph_id, n, alpha, gamma, ddm, size, _ in rows:
            counts[int(n)] = counts.get(int(n), 0) + 1
            if ddm != "infinity" and not int(gamma) <= int(ddm) == int(size):
                problems.append(f"{graph_id}: ddm {ddm} below gamma or not the certificate size")
        want = {n: certcheck.CONNECTED_GRAPHS[n] for n in range(1, max_n + 1)}
        if counts != want:
            problems.append(f"rows per n {counts} != A001349 {want}")
        return problems
    return check


def _check_alpha3(max_n: int, counterexamples: int):
    def check(stdout: bytes, _cwd: Path) -> list[str]:
        out = _json(stdout)
        problems = []
        listed = out["existence_counterexamples"]
        if len(listed) != counterexamples:
            problems.append(f"{len(listed)} existence counterexamples, expected {counterexamples}")
        for entry in listed:
            n, edges = certcheck.parse_edge_list(entry["graph"])
            if not (6 <= n <= max_n and certcheck.is_connected(n, edges)
                    and certcheck.independence_number(n, edges) == 3
                    and certcheck.strong_stem(n, edges) is not None):
                problems.append(f"{entry['graph_id']} is not a connected alpha-3 graph with a strong stem")
        if out["bound_counterexamples"]:
            problems.append("alpha-3 bound counterexamples listed")
        return problems
    return check


def census_items(_seed: int, _inputs: Path) -> list[Item]:
    # The scans are exhaustive, so the seed changes nothing.  Of the 12 graphs
    # with no swap pair that `scan alpha3 --max-n 8` lists, 7 have at most 7
    # vertices; each must carry a strong stem, which rules a pair out.
    return [
        Item("conjectures-7", ["scan", "conjectures", "--max-n", "7", "--format", "tsv"],
             _check_conjectures_tsv(7)),
        Item("alpha3-7", ["scan", "alpha3", "--max-n", "7"],
             _check_alpha3(7, 7)),
    ]


# ---------------------------------------------------------------------------
# products: the product lower-bound scan

def _check_products(max_n: int):
    def check(stdout: bytes, _cwd: Path) -> list[str]:
        out = _json(stdout)
        problems = []
        want = certcheck.factor_pairs(max_n)
        if out["pairs"] != want:
            problems.append(f"{out['pairs']} factor pairs, expected {want}")
        if out["gamma_gamma_violations"] != 0:
            problems.append("gamma(G)gamma(H) lower bound reported violated")
        return problems
    return check


def products_items(_seed: int, _inputs: Path) -> list[Item]:
    # Exhaustive over factor pairs, so the seed changes nothing.
    return [Item("products-15", ["scan", "products", "--max-n", "15"], _check_products(15))]


# ---------------------------------------------------------------------------
# scale: linear-time paths on large inputs

def _check_tree(path: Path, hat_k: int | None = None):
    def check(stdout: bytes, _cwd: Path) -> list[str]:
        n, edges = certcheck.parse_edge_list(path.read_text())
        out = _json(stdout)
        result = out["result"]
        problems = []
        if out["n"] != n:
            problems.append(f"n {out['n']} != {n}")
        stem = certcheck.strong_stem(n, edges)
        if result["status"] == "infinite":
            if stem is None:
                problems.append("infinite swap number on a tree without a strong stem")
        elif result["status"] != "finite":
            problems.append(f"status {result['status']}")
        else:
            if stem is not None:
                problems.append(f"swap set reported though vertex {stem} is a strong stem")
            problems += certcheck.certificate_problems(n, edges, result["certificate"])
            if len(result["certificate"]["d"]) != result["ddm"]:
                problems.append("ddm is not the certificate size")
        if hat_k is not None and result.get("ddm") != hat_k:
            problems.append(f"hat(P_{hat_k}) swap number {result.get('ddm')}, expected {hat_k}")
        return problems
    return check


def _check_construct(want_n: int, want_edges: Callable[[], set], bound: int | None = None,
                     graph_out: str | None = None, cert_out: str | None = None):
    def check(stdout: bytes, cwd: Path) -> list[str]:
        out = _json(stdout)
        edges = [tuple(e) for e in out["graph"]["edges"]]
        n = out["graph"]["n"]
        cert = out["certificate"]
        want = want_edges()
        problems = []
        if n != want_n or certcheck.edge_set(edges) != want or len(edges) != len(want):
            problems.append("printed graph differs from the requested one")
        problems += certcheck.certificate_problems(n, edges, cert)
        if out["size"] != len(cert["d"]):
            problems.append("size is not the certificate size")
        if bound is not None and out["size"] > bound:
            problems.append(f"size {out['size']} above the bound {bound}")
        if graph_out is not None:
            file_n, file_edges = certcheck.parse_edge_list((cwd / graph_out).read_text())
            if file_n != n or certcheck.edge_set(file_edges) != certcheck.edge_set(edges):
                problems.append("--graph-out differs from the printed graph")
        if cert_out is not None and json.loads((cwd / cert_out).read_text()) != cert:
            problems.append("--cert-out differs from the printed certificate")
        return problems
    return check


def _grid_check(m: int, n: int, **files):
    return _check_construct(m * n, lambda: certcheck.grid_edges(m, n),
                            bound=(n + 2) * (m + 3) // 5, **files)


def _check_verified(stdout: bytes, _cwd: Path) -> list[str]:
    out = _json(stdout)
    return [] if out == {"verified": True, "violations": []} else [f"verify printed {out}"]


def _check_grid_report(max_mn: int):
    def check(stdout: bytes, _cwd: Path) -> list[str]:
        lines = stdout.decode("utf-8").splitlines()
        rows = [tuple(line.split("\t")) for line in lines[1:]]
        want = [(m, n) for n in range(8, max_mn + 1) for m in range(n, max_mn + 1)]
        if [(int(r[0]), int(r[1])) for r in rows] != want:
            return ["grid report rows differ from 8 <= n <= m <= max"]
        problems = []
        for m_, n_, size, _, bound, _ in rows:
            m, n = int(m_), int(n_)
            if int(bound) != (n + 2) * (m + 3) // 5 or int(size) > int(bound):
                problems.append(f"{m}x{n}: size {size} against bound {bound}")
        return problems
    return check


SCALE_TREES = (1_000, 10_000, 30_000)
PRODUCT_TREE = 1_000
DEEP_HAT = 5_000


def scale_items(seed: int, inputs: Path) -> list[Item]:
    """Writes the seeded input trees to `inputs` and returns the items."""
    rng = random.Random(seed)
    items = []
    for n in SCALE_TREES:
        path = inputs / f"tree-{n}.txt"
        write_edge_list(path, n, prufer_tree(n, rng))
        items.append(Item(f"tree-{n}", ["tree", str(path)], _check_tree(path),
                          seeded=True, vertices=n))
    path = inputs / "hat-500.txt"
    write_edge_list(path, 1_000, hat_path(500))
    items.append(Item("tree-hat-500", ["tree", str(path)], _check_tree(path, 500)))
    items.append(Item("grid-50", ["construct", "grid", "50", "50"], _grid_check(50, 50),
                      vertices=2_500))
    items.append(Item("grid-200-files",
                      ["construct", "grid", "200", "200", "--graph-out", "grid.txt",
                       "--cert-out", "grid-cert.json"],
                      _grid_check(200, 200, graph_out="grid.txt", cert_out="grid-cert.json"),
                      vertices=40_000))
    items.append(Item("verify-grid-200", ["verify", "grid.txt", "grid-cert.json"],
                      _check_verified))
    path = inputs / f"product-tree-{PRODUCT_TREE}.txt"
    tree = prufer_tree(PRODUCT_TREE, rng)
    write_edge_list(path, PRODUCT_TREE, tree)
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    items.append(Item("product-tree-c8", ["construct", "product", str(path), "c8"],
                      _check_construct(8 * PRODUCT_TREE, lambda: certcheck.product_edges(
                          PRODUCT_TREE, tree, 8, cycle)),
                      seeded=True))
    items.append(Item("report-grid-14", ["report", "grid", "--max-mn", "14"],
                      _check_grid_report(14)))
    return items


def deep_tree_probe(inputs: Path) -> Item:
    """hat(P_5000), a deep tree that the tree DP's recursion cannot reach
    the bottom of; run outside the measured passes (see run.py)."""
    path = inputs / f"hat-{DEEP_HAT}.txt"
    write_edge_list(path, 2 * DEEP_HAT, hat_path(DEEP_HAT))
    return Item(f"tree-hat-{DEEP_HAT}", ["tree", str(path)], _check_tree(path, DEEP_HAT))


WORKLOADS = {
    "census": census_items,
    "products": products_items,
    "scale": scale_items,
}
