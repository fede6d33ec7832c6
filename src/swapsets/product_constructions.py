"""Constructive swap certificates on Cartesian products.

An exact-size layout for products of two stars; a block tiling that covers
a product of trees with star-times-star blocks, each carrying that layout
(a product of two stars is a single block); and the spanning-tree route
that makes the tiling work for arbitrary connected factors, because a
certificate valid on a spanning subgraph stays valid in the host graph.
"""

from __future__ import annotations

import heapq
import math

from .exact_solver import dd_m_exact, swap_pair_below, INFINITE, FINITE
from .graph_core import (
    ConstructionError,
    ContractError,
    Graph,
    SwapCertificate,
    _Frozen,
    _split_map,
    bfs_tree,
    cartesian_product,
    certified,
    domination_number,
    has_dominating_set,
    is_connected,
    is_tree,
    star_graph,
)
from .tree_algorithms import StarPartition, _require_nontrivial_tree, _rooted


# ---------------------------------------------------------------------------
# star products (K_{1,p} x K_{1,q})

class StarProductLayout(_Frozen):
    """Certificate for K_{1,p} box K_{1,q} in (u-index, v-index) coordinates.

    Index 0 is the star center on both axes.  Size is max(2, p+q-1): the
    formula value except for the 4-cycle p = q = 1, where two disjoint
    dominating singletons cannot exist.
    """

    __slots__ = ("p", "q", "d_coords", "d_prime_coords", "matching_coords")

    def __init__(self, p: int, q: int, d_coords: tuple[tuple[int, int], ...],
                 d_prime_coords: tuple[tuple[int, int], ...],
                 matching_coords: tuple[tuple[tuple[int, int], tuple[int, int]], ...]):
        self._set(p, q, d_coords, d_prime_coords, matching_coords)


def star_product_layout(p: int, q: int) -> StarProductLayout:
    """Layout with p >= q >= 1 (callers normalize)."""
    if q > p or q < 1:
        raise ContractError("layout requires p >= q >= 1")
    if p == 1:
        # C4: opposite corners vs. the other diagonal, matched vertically
        d = ((0, 0), (1, 1))
        dp = ((0, 1), (1, 0))
        matching = (((0, 0), (0, 1)), ((1, 1), (1, 0)))
        return StarProductLayout(p, q, d, dp, matching)
    d = tuple((i, 0) for i in range(1, p)) + tuple((p, i) for i in range(1, q + 1))
    dp = tuple((0, i) for i in range(0, q + 1)) + tuple((i, q) for i in range(1, p - 1))
    matching = (
        tuple(((i, 0), (i, q)) for i in range(1, p - 1))
        + (((p - 1, 0), (0, 0)),)
        + tuple(((p, i), (0, i)) for i in range(1, q + 1))
    )
    return StarProductLayout(p, q, d, dp, matching)


def star_product_swap(p: int, q: int) -> tuple[Graph, SwapCertificate]:
    """Product of two stars with a verified certificate of size max(2, p+q-1):
    the tiling of a product of trees, here a single block."""
    if p < 1 or q < 1:
        raise ContractError("star products need p, q >= 1")
    return product_swap_general(star_graph(p), star_graph(q))


# ---------------------------------------------------------------------------
# star partitions with no singleton parts

def star_partition_order2(t: Graph) -> StarPartition:
    """Partition a non-trivial tree into induced stars of order >= 2.

    Greedy: repeatedly take the deepest vertex whose remaining children are
    all leaves (the lowest index among equals) and cut it off with them; a
    root left alone at the end joins the part of one of its former children
    (always possible: that child is a part center, or its K2 part can be
    re-centered).  The vertices left always form a subtree around the root,
    and cutting a stem off can make only its parent and grandparent ready,
    so a heap of ready stems finds each next stem in O(log n).
    """
    _require_nontrivial_tree(t)
    parent, children, order = _rooted(t)
    depth = [0] * t.n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1

    live_children = [len(cs) for cs in children]
    # live children that still have live children of their own
    inner_children = [sum(1 for c in cs if children[c]) for cs in children]
    ready = [(-depth[v], v) for v in range(t.n) if children[v] and not inner_children[v]]
    heapq.heapify(ready)
    cut = [False] * t.n
    remaining = t.n
    parts: list[tuple[int, list[int]]] = []
    while remaining > 1:
        _, v = heapq.heappop(ready)
        members = [c for c in children[v] if not cut[c]]
        parts.append((v, members))
        for x in [v, *members]:
            cut[x] = True
        remaining -= 1 + len(members)
        p = parent[v]
        if p == -1:
            continue
        live_children[p] -= 1
        inner_children[p] -= 1
        if live_children[p] and not inner_children[p]:
            heapq.heappush(ready, (-depth[p], p))
        elif not live_children[p] and parent[p] != -1:
            grand = parent[p]
            inner_children[grand] -= 1
            if not inner_children[grand]:
                heapq.heappush(ready, (-depth[grand], grand))
    if remaining:
        r = order[0]
        for idx, (c, leaves) in enumerate(parts):
            if t.has_edge(r, c):
                leaves.append(r)
                break
            if len(leaves) == 1 and t.has_edge(r, leaves[0]):
                # re-center a K2 at the endpoint adjacent to the root
                parts[idx] = (leaves[0], [c, r])
                break
        else:
            raise ConstructionError("lone root could not join any star part")
    partition = StarPartition.build(parts)
    if not all(ls for _, ls in partition.parts):
        raise ConstructionError("star partition left a singleton part")
    return partition


def partition_stats(p: StarPartition) -> tuple[int, int]:
    """(number of parts, leaf count of the largest star part)."""
    return len(p.parts), max(len(ls) for _, ls in p.parts)


# ---------------------------------------------------------------------------
# tree products and the general route

def tree_product_swap(t: Graph, t_prime: Graph) -> tuple[Graph, SwapCertificate, int]:
    """Certificate on a product of trees by tiling star-times-star blocks.

    Both factors are partitioned into stars of order >= 2; each block
    S x S' induces K_{1,a} box K_{1,b} inside the product and receives that
    product's certificate.  Returns the product, the certificate, and the
    a-priori bound x * x' * (l + l' - 1) from the part counts and largest
    leaf counts; the concrete certificate size is sum of max(2, a+b-1) over
    blocks, which exceeds the bound only through all-K2 blocks.
    """
    cert, paper_bound = _tile_tree_product(t, t_prime)
    product = cartesian_product(t, t_prime)
    return product, certified(product, cert), paper_bound


def _tile_tree_product(t: Graph, t_prime: Graph) -> tuple[SwapCertificate, int]:
    """tree_product_swap's certificate and bound, without building or
    checking the product."""
    _require_nontrivial_tree(t)
    _require_nontrivial_tree(t_prime)
    parts = star_partition_order2(t)
    parts_p = star_partition_order2(t_prime)
    hn = t_prime.n
    d: list[int] = []
    dp: list[int] = []
    matching: list[tuple[int, int]] = []
    for c, leaves in parts.parts:
        us = [c, *leaves]
        for c2, leaves2 in parts_p.parts:
            vs = [c2, *leaves2]
            a, b = len(leaves), len(leaves2)
            if a >= b:
                layout = star_product_layout(a, b)
                to_vertex = lambda coord: us[coord[0]] * hn + vs[coord[1]]
            else:
                layout = star_product_layout(b, a)
                to_vertex = lambda coord: us[coord[1]] * hn + vs[coord[0]]
            d.extend(to_vertex(x) for x in layout.d_coords)
            dp.extend(to_vertex(x) for x in layout.d_prime_coords)
            matching.extend((to_vertex(x), to_vertex(y)) for x, y in layout.matching_coords)
    x, l = partition_stats(parts)
    x2, l2 = partition_stats(parts_p)
    return SwapCertificate.build(d, dp, matching), x * x2 * (l + l2 - 1)


def bfs_spanning_tree(g: Graph) -> Graph:
    """Breadth-first spanning tree from vertex 0, neighbors in ascending order."""
    parent, order = bfs_tree(g)
    if len(order) != g.n:
        raise ContractError("spanning tree needs a connected graph")
    return Graph(g.n, [(parent[v], v) for v in order[1:]])


def product_swap_general(g: Graph, h: Graph) -> tuple[Graph, SwapCertificate]:
    """Verified certificate on g box h for any connected non-trivial factors,
    whether or not the factors themselves admit swap pairs: the tree-product
    tiling on breadth-first spanning trees stays valid in the host product,
    so only the host product is built and checked."""
    if g.n < 2 or h.n < 2:
        raise ContractError("product factors must be non-trivial")
    if not (is_connected(g) and is_connected(h)):
        raise ContractError("product factors must be connected")
    tg = g if is_tree(g) else bfs_spanning_tree(g)
    th = h if is_tree(h) else bfs_spanning_tree(h)
    cert, _ = _tile_tree_product(tg, th)
    product = cartesian_product(g, h)
    return product, certified(product, cert)


# ---------------------------------------------------------------------------
# the two product lower-bound questions

class ProductScanRow(_Frozen):
    __slots__ = ("g_id", "h_id", "ddm_product", "gamma_g", "gamma_h", "min_expr",
                 "violation")

    def __init__(self, g_id: str, h_id: str,
                 ddm_product: str,  # exact integer, or "lo..hi" when only bracketed
                 gamma_g: int, gamma_h: int,
                 min_expr: str,  # min(ddm_g * gamma_h, gamma_g * ddm_h), "infinity" possible
                 violation: str):  # "none", "gg", "min", or "unknown"
        self._set(g_id, h_id, ddm_product, gamma_g, gamma_h, min_expr, violation)


class ProductScanReport:
    def __init__(self, max_vertices: int):
        self.max_vertices = max_vertices
        self.rows: list[ProductScanRow] = []
        self.counterexamples: list[dict] = []

    @property
    def gg_violations(self) -> int:
        return sum(1 for r in self.rows if r.violation == "gg")

    def to_tsv(self) -> str:
        lines = ["g_id\th_id\tddm_product\tgamma_g\tgamma_h\tmin_expr\tviolation_flag"]
        for r in self.rows:
            lines.append(
                f"{r.g_id}\t{r.h_id}\t{r.ddm_product}\t{r.gamma_g}\t{r.gamma_h}"
                f"\t{r.min_expr}\t{r.violation}"
            )
        return "\n".join(lines) + "\n"


def _as_number(ddm):
    """A census swap number as a number: "infinity" becomes math.inf."""
    return math.inf if ddm == "infinity" else ddm


# products up to this many vertices get their exact swap number tabulated
EXACT_PRODUCT_N = 12
# candidate pairs one bounded threshold search may examine
PAIR_BUDGET = 2_000_000


def _pair_below_verdict(product: Graph, bound: int, question: str):
    """The verdict and pair of a bounded search for a swap pair below bound:
    question when one is found, "none" when none exists, "unknown" past budget."""
    found = swap_pair_below(product, bound, node_budget=PAIR_BUDGET)
    if found.status == FINITE:
        return question, found.certificate
    return ("none" if found.status == INFINITE else "unknown"), None


def product_question_scan(max_vertices: int) -> ProductScanReport:
    """Test both conjectured lower bounds for DD_m of products, exhaustively
    over unordered pairs of connected non-trivial factors with
    |V(g)| * |V(h)| <= max_vertices.

    The gamma*gamma verdict is always exact: a violation needs a swap pair
    smaller than gamma(g)*gamma(h), and the bounded search below that value
    is certified either way.  Exact DD_m of the product is tabulated when the
    product has at most EXACT_PRODUCT_N vertices; above that the table shows
    a bracket [known lower .. construction size].  The min-expression verdict
    degrades to "unknown" only if its bounded search runs out of budget.
    """
    from .small_alpha import MAX_CENSUS_N, CensusRecord, census

    factors = [r for r in census(min(max_vertices // 2, MAX_CENSUS_N)) if r.n >= 2]
    CensusRecord.fill(factors, ("gamma", "ddm"))
    pairs = []
    for i, a in enumerate(factors):
        for b in factors[i:]:
            if a.n * b.n > max_vertices:
                break  # the census is ordered by n, so every later h is larger
            pairs.append((a, b))
    report = ProductScanReport(max_vertices)
    for (a, b), (ddm_cell, min_text, violation, cert) in zip(
            pairs, _split_map(_product_row, pairs)):
        if cert is not None:
            report.counterexamples.append({
                "g_id": a.graph_id, "h_id": b.graph_id, "question": violation,
                "ddm_product": ddm_cell, "gamma_g": a.gamma, "gamma_h": b.gamma,
                "min_expr": min_text, "certificate": cert,
            })
        report.rows.append(ProductScanRow(
            a.graph_id, b.graph_id, ddm_cell, a.gamma, b.gamma, min_text, violation))
    return report


def _product_row(pair) -> tuple[str, str, str, dict | None]:
    """One pair of product_question_scan as plain data: the DD_m cell, the
    min-expression text, the verdict, and the counterexample certificate's
    JSON object when the verdict is "gg" or "min", else None."""
    a, b = pair
    g, h = a.graph, b.graph
    gamma_g, ddm_g = a.gamma, _as_number(a.ddm)
    gamma_h, ddm_h = b.gamma, _as_number(b.ddm)
    product, cert = product_swap_general(g, h)
    upper = cert.size()
    gg = gamma_g * gamma_h
    min_expr = min(ddm_g * gamma_h, gamma_g * ddm_h)
    min_text = "infinity" if min_expr == math.inf else str(min_expr)
    ddm_cell: str
    violation = "none"
    counterexample_cert = None
    if product.n <= EXACT_PRODUCT_N:
        res = dd_m_exact(product)
        if res.status != FINITE:  # the construction guarantees a pair
            raise ConstructionError("exact solver missed the constructed pair")
        ddm_cell = str(res.k)
        if res.k < gg:
            violation = "gg"
        elif res.k < min_expr:
            violation = "min"
        counterexample_cert = res.certificate
    else:
        lo = gg
        if has_dominating_set(product, gg - 1):
            # the domination number alone no longer rules a pair out
            lo = domination_number(product)
            violation, counterexample_cert = _pair_below_verdict(product, gg, "gg")
        ddm_cell = f"{lo}..{upper}"
        if violation == "none":
            if upper < min_expr:
                violation = "min"
                counterexample_cert = cert
            elif gg < min_expr < math.inf and \
                    has_dominating_set(product, min_expr - 1):
                violation, counterexample_cert = _pair_below_verdict(
                    product, min_expr, "min")
    if violation not in ("gg", "min"):
        return ddm_cell, min_text, violation, None
    return ddm_cell, min_text, violation, counterexample_cert.to_json_dict()
