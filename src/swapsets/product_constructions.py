"""Constructive swap certificates on Cartesian products.

An exact-size layout for products of two stars; a block tiling that covers
a product of trees with star-times-star blocks, each carrying that layout
(a product of two stars is a single block); and the spanning-tree route
that makes the tiling work for arbitrary connected factors, because a
certificate valid on a spanning subgraph stays valid in the host graph.
"""

from __future__ import annotations

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
    star_graph,
)
from .tree_algorithms import StarPartition, _rooted


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
    """Partition a non-trivial tree into induced stars of order >= 2."""
    parent, order = _rooted(t)
    if t.n < 2:
        raise ContractError("expected a non-trivial tree")
    return _star_parts(parent, order)


def _star_parts(parent: list[int], order: list[int]) -> StarPartition:
    """Stars of order >= 2 partitioning the tree of a breadth-first walk
    (parent, order) over at least two vertices.

    One pass from the deepest vertex up: a vertex that none of its children
    joined joins its parent's star, so a vertex is a center exactly when some
    child of it is not.  The root is left alone only when every child of it
    is a center; it then joins the star of its lowest-index child, order[1].
    """
    leaves: list[list[int]] = [[] for _ in parent]
    for v in reversed(order[1:]):
        if not leaves[v]:
            leaves[parent[v]].append(v)
    if not leaves[order[0]]:
        leaves[order[1]].append(order[0])
    return StarPartition.build((c, ls) for c, ls in enumerate(leaves) if ls)


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
    cert, paper_bound = _tile(star_partition_order2(t), star_partition_order2(t_prime),
                              t_prime.n)
    product = cartesian_product(t, t_prime)
    return product, certified(product, cert), paper_bound


def _tile(parts: StarPartition, parts_p: StarPartition, hn: int) -> tuple[SwapCertificate, int]:
    """The star-times-star certificate on the product of two factors with
    these star partitions, the second factor on hn vertices, and its
    a-priori bound, without building or checking the product."""
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


def product_swap_general(g: Graph, h: Graph) -> tuple[Graph, SwapCertificate]:
    """Verified certificate on g box h for any connected non-trivial factors,
    whether or not the factors themselves admit swap pairs: the tree-product
    tiling on breadth-first spanning trees stays valid in the host product,
    so only the host product is built and checked.  One walk per factor
    checks that it is connected and gives its spanning tree, which for a
    tree is the factor itself."""
    if g.n < 2 or h.n < 2:
        raise ContractError("product factors must be non-trivial")
    parts = []
    for f in (g, h):
        parent, order = bfs_tree(f)
        if len(order) != f.n:
            raise ContractError("product factors must be connected")
        parts.append(_star_parts(parent, order))
    cert, _ = _tile(*parts, h.n)
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
    |V(g)| * |V(h)| <= max_vertices and at most MAX_CENSUS_N = 8 vertices
    each.  The factors come from the census, which stops at 8 vertices, so
    from max_vertices = 18 on pairs such as K2 x G with |V(G)| = 9 are left
    out.

    The gamma*gamma verdict is always exact: a violation needs a swap pair
    smaller than gamma(g)*gamma(h), which the projection bound rules out
    when a factor has gamma 1, and otherwise the bounded search below that
    value is certified either way.  Exact DD_m of the product is tabulated
    when the product has at most EXACT_PRODUCT_N vertices; above that the
    table shows a bracket [known lower .. construction size].  The
    min-expression verdict degrades to "unknown" only if its bounded search
    runs out of budget.

    All pairs go through _product_row in one _split_map.  A factor's gamma
    and swap number are computed only when a row reads them (see
    _product_row), and each row returns its factors' gamma, so the report
    is built from the returned values alone.
    """
    from .small_alpha import MAX_CENSUS_N, census

    factors = [r for r in census(min(max_vertices // 2, MAX_CENSUS_N)) if r.n >= 2]
    pairs = []
    for i, a in enumerate(factors):
        for b in factors[i:]:
            if a.n * b.n > max_vertices:
                break  # the census is ordered by n, so every later h is larger
            pairs.append((a, b))
    report = ProductScanReport(max_vertices)
    for (a, b), (gamma_g, gamma_h, ddm_cell, min_text, violation, cert) in zip(
            pairs, _split_map(_product_row, pairs)):
        if cert is not None:
            report.counterexamples.append({
                "g_id": a.graph_id, "h_id": b.graph_id, "question": violation,
                "ddm_product": ddm_cell, "gamma_g": gamma_g, "gamma_h": gamma_h,
                "min_expr": min_text, "certificate": cert,
            })
        report.rows.append(ProductScanRow(
            a.graph_id, b.graph_id, ddm_cell, gamma_g, gamma_h, min_text, violation))
    return report


def _product_row(pair) -> tuple[int, int, str, str, str, dict | None]:
    """One pair (a, b) of product_question_scan, a no larger than b, as
    plain data: gamma(g), gamma(h), the DD_m cell, the min-expression text,
    the verdict, and the counterexample certificate's JSON object when the
    verdict is "gg" or "min", else None.

    A graph with a swap pair has DD_m >= gamma, since each side dominates.
    So DD_m(g) = gamma(g) makes DD_m(g) gamma(h) = gamma(g) gamma(h) <=
    gamma(g) DD_m(h), and min_expr = gamma(g) gamma(h) with DD_m(h) unread;
    the same holds the other way round.  DD_m(g), of the smaller factor, is
    read first, DD_m(h) only when DD_m(g) != gamma(g), and the full formula
    is used only when both differ.

    Projecting a dominating set of g x h onto g dominates g, so
    gamma(g x h) >= max(gamma(g), gamma(h)), which is gamma(g) gamma(h)
    when either factor has gamma 1; only when both have gamma >= 2 is the
    product searched for a dominating set below gamma(g) gamma(h).
    """
    a, b = pair
    gamma_g, gamma_h = a.gamma, b.gamma
    gg = gamma_g * gamma_h
    if a.ddm == gamma_g or b.ddm == gamma_h:
        min_expr = gg
    else:
        min_expr = min(_as_number(a.ddm) * gamma_h, gamma_g * _as_number(b.ddm))
    min_text = "infinity" if min_expr == math.inf else str(min_expr)
    product, cert = product_swap_general(a.graph, b.graph)
    upper = cert.size()
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
        if min(gamma_g, gamma_h) > 1 and has_dominating_set(product, gg - 1):
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
        return gamma_g, gamma_h, ddm_cell, min_text, violation, None
    return gamma_g, gamma_h, ddm_cell, min_text, violation, counterexample_cert.to_json_dict()
