"""Swap sets for graphs with small independence number, and exhaustive
small-graph scans.

For a connected graph with independence number 2 (and more than three
vertices) a swap pair of size two always exists and is built directly from
a maximum independent set and two of its neighbors.  For independence
number 3 (and at least six vertices) a swap set always exists; the
construction here follows the same path as the existence argument, with a
guaranteed exhaustive fallback for case branches the argument leaves
implicit.  The same enumeration machinery drives empirical scans of two
open conjectures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

from .exact_solver import FINITE, dd_m_exact
from .graph_core import (
    BudgetError,
    ContractError,
    Graph,
    SwapCertificate,
    domination_number,
    format_graph,
    independence_number,
    is_connected,
    is_dominating,
    is_independent,
    mask_of,
    matching_between,
    members_of,
    subdivided_doubled_triangle,
    verify_certificate,
)


# ---------------------------------------------------------------------------
# canonical forms and enumeration

def _refine(g: Graph, colors: tuple) -> tuple:
    """Stable partition refinement: a vertex's color absorbs the multiset of
    its neighbors' colors until nothing changes."""
    while True:
        signatures = []
        for v in range(g.n):
            nbh = tuple(sorted(colors[u] for u in g.neighbors(v)))
            signatures.append((colors[v], nbh))
        palette = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new = tuple(palette[s] for s in signatures)
        if new == colors:
            return new
        colors = new


def _cells(colors: tuple) -> list[list[int]]:
    buckets: dict = {}
    for v, c in enumerate(colors):
        buckets.setdefault(c, []).append(v)
    return [buckets[c] for c in sorted(buckets)]


def _encode(g: Graph, perm: list[int]) -> int:
    """Upper-triangle adjacency bits of g relabeled by perm, as an integer."""
    pos = {v: i for i, v in enumerate(perm)}
    bits = 0
    for u, v in g.edges:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        bits |= 1 << (a * g.n + b)
    return bits


def _homogeneous(g: Graph, cell: list[int]) -> bool:
    """Every permutation of the cell is an automorphism: its vertices share
    one exact outside neighborhood and induce a clique or an empty graph."""
    inside = set(cell)
    ref = None
    for v in cell:
        outside = frozenset(u for u in g.neighbors(v) if u not in inside)
        if ref is None:
            ref = outside
        elif outside != ref:
            return False
    deg_in = [sum(1 for u in g.neighbors(v) if u in inside) for v in cell]
    k = len(cell)
    return all(d == 0 for d in deg_in) or all(d == k - 1 for d in deg_in)


def canonical_form(g: Graph) -> int:
    """Canonical adjacency encoding, equal exactly for isomorphic graphs.

    Individualization-refinement: refine by color, split the first
    non-singleton cell on each of its vertices in turn, and take the minimum
    encoding over the discrete orderings reached.  Cells whose vertices are
    provably interchangeable are split only once.
    """
    best = None

    def descend(colors: tuple) -> None:
        nonlocal best
        colors = _refine(g, colors)
        cells = _cells(colors)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            perm = [v for cell in cells for v in cell]
            code = _encode(g, perm)
            if best is None or code < best:
                best = code
            return
        branch = target[:1] if _homogeneous(g, target) else target
        for v in branch:
            bumped = tuple(c + (0 if u != v else g.n * g.n) for u, c in enumerate(colors))
            descend(bumped)

    descend((0,) * g.n)
    return best if best is not None else 0


def _graph_id(n: int, code: int) -> str:
    return f"{n}-{code:x}"


def canonical_id(g: Graph) -> str:
    return _graph_id(g.n, canonical_form(g))


# ---------------------------------------------------------------------------
# the census of small connected graphs

MAX_CENSUS_N = 8


@dataclass
class CensusRecord:
    """One isomorphism class of connected graphs: its representative and
    id, with alpha, gamma and the swap number computed on first use."""

    graph: Graph
    graph_id: str

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def alpha(self) -> int:
        return independence_number(self.graph)

    @cached_property
    def gamma(self) -> int:
        return domination_number(self.graph)

    @cached_property
    def ddm(self) -> int | str:
        """The swap number, or "infinity" when no swap pair exists."""
        result = dd_m_exact(self.graph)
        return result.k if result.status == FINITE else "infinity"

    @property
    def cert_size(self) -> int | None:
        """Size of the certificate behind ddm, None when there is none."""
        return None if self.ddm == "infinity" else self.ddm


def census(max_n: int) -> list[CensusRecord]:
    """One record per isomorphism class of connected graphs on 1..max_n
    vertices, ordered by n and then by canonical encoding.  Every exhaustive
    scan is a filter over these records."""
    if max_n > MAX_CENSUS_N:
        raise BudgetError(f"census capped at n={MAX_CENSUS_N}, got n={max_n}")
    return [rec for n in range(1, max_n + 1) for rec in _classes(n)]


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[CensusRecord, ...]:
    """The census records on exactly n vertices.  Generated by extending
    each (n-1)-vertex class with a new vertex attached to every possible
    neighborhood; every connected graph arises this way because it has a
    non-cut vertex."""
    if n == 1:
        children = [Graph(1, [])]
    else:
        children = (Graph(n, [*parent.graph.edges, *((u, n - 1) for u in members_of(mask))])
                    for parent in _classes(n - 1) for mask in range(1, 1 << (n - 1)))
    out: dict[int, Graph] = {}
    for child in children:
        out.setdefault(canonical_form(child), child)
    return tuple(CensusRecord(out[code], _graph_id(n, code)) for code in sorted(out))


def enumerate_connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class,
    ordered by canonical encoding."""
    if n < 1:
        raise ContractError("n must be positive")
    return tuple(rec.graph for rec in census(n) if rec.n == n)


def _lex_max_independent_set(g: Graph, alpha: int) -> tuple[int, ...]:
    for cand in combinations(range(g.n), alpha):
        if is_independent(g, cand):
            return cand
    raise AssertionError("independence number was wrong")


# ---------------------------------------------------------------------------
# independence number 2

def alpha2_swap(g: Graph) -> SwapCertificate:
    """Size-2 swap certificate for a connected graph with independence
    number 2 on more than three vertices.

    D is the lexicographically least maximum independent set {u,v}; its
    partner is either an independent pair in N({u,v}) (which must then
    dominate) or, when N({u,v}) is a clique, a dominating pair from it with
    a matching back to {u,v}.
    """
    if not is_connected(g):
        raise ContractError("alpha2_swap needs a connected graph")
    if g.n <= 3:
        raise ContractError("alpha2_swap needs more than three vertices")
    if independence_number(g) != 2:
        raise ContractError("alpha2_swap needs independence number exactly 2")
    u, v = _lex_max_independent_set(g, 2)
    hood = sorted(members_of((g.open_mask(u) | g.open_mask(v))
                             & ~mask_of((u, v), g.n)))
    for y, z in combinations(hood, 2):
        if g.has_edge(y, z):
            continue
        matching = matching_between(g, (u, v), (y, z))
        if matching is None or not is_dominating(g, (y, z)):
            continue
        cert = SwapCertificate.build((u, v), (y, z), matching)
        if verify_certificate(g, cert):
            return cert
    for w, x in combinations(hood, 2):
        if not is_dominating(g, (w, x)):
            continue
        matching = matching_between(g, (u, v), (w, x))
        if matching is None:
            continue
        cert = SwapCertificate.build((u, v), (w, x), matching)
        if verify_certificate(g, cert):
            return cert
    raise AssertionError("no size-2 partner found despite alpha = 2")


# ---------------------------------------------------------------------------
# independence number 3

def _saturating_triples(g: Graph, i_set: tuple[int, ...]):
    """Matchings that saturate the independent triple, as partner triples
    (one distinct neighbor per member), lexicographic."""
    u, v, w = i_set
    for a in sorted(g.neighbors(u)):
        for b in sorted(g.neighbors(v)):
            if b == a:
                continue
            for c in sorted(g.neighbors(w)):
                if c in (a, b):
                    continue
                yield (a, b, c)


def alpha3_swap_with_stage(g: Graph) -> tuple[SwapCertificate, str]:
    """Swap certificate plus the name of the search stage that produced it:
    "matched-dominating" when some saturating matching's partner set already
    dominates, "q-augmented" when extending both sides into the undominated
    region works, "pool-search" when a small pair inside the touched pool
    works, and "fallback" for the exhaustive solver.

    Raises AssertionError("no swap set exists ...") when g has a strong stem
    (a vertex with two or more pendant neighbors), since then no swap pair
    exists."""
    if not is_connected(g):
        raise ContractError("alpha3_swap needs a connected graph")
    if g.n < 6:
        raise ContractError("alpha3_swap needs at least six vertices")
    if independence_number(g) != 3:
        raise ContractError("alpha3_swap needs independence number exactly 3")
    i_set = _lex_max_independent_set(g, 3)
    i_mask = mask_of(i_set, g.n)
    triples = list(_saturating_triples(g, i_set))

    for j in triples:
        if is_dominating(g, j):
            cert = SwapCertificate.build(i_set, j, tuple(zip(i_set, j)))
            if verify_certificate(g, cert):
                return cert, "matched-dominating"

    for j in triples:
        dominated = 0
        for x in j:
            dominated |= g.closed_mask(x)
        q = sorted(members_of(g.full_mask & ~dominated & ~i_mask))
        if not q:
            continue
        pairs = []
        used = set()
        for x in q:
            if x in used:
                continue
            for y in q:
                if y > x and y not in used and g.has_edge(x, y):
                    pairs.append((x, y))
                    used.update((x, y))
                    break
        for orient in range(1 << len(pairs)):
            d = list(i_set)
            dp = list(j)
            matching = list(zip(i_set, j))
            for idx, (x, y) in enumerate(pairs):
                if orient >> idx & 1:
                    x, y = y, x
                d.append(x)
                dp.append(y)
                matching.append((x, y))
            if len(set(d)) != len(d) or len(set(dp)) != len(dp) or set(d) & set(dp):
                continue
            cert = SwapCertificate.build(d, dp, matching)
            if verify_certificate(g, cert):
                return cert, "q-augmented"

    for j in triples:
        dominated = 0
        for x in j:
            dominated |= g.closed_mask(x)
        q = tuple(members_of(g.full_mask & ~dominated & ~i_mask))
        pool = sorted(set(i_set) | set(j) | set(q))
        for size in (3, 4):
            for d in combinations(pool, size):
                if not is_dominating(g, d):
                    continue
                rest = [x for x in pool if x not in d]
                for dp in combinations(rest, size):
                    if not is_dominating(g, dp):
                        continue
                    matching = matching_between(g, d, dp)
                    if matching is None:
                        continue
                    cert = SwapCertificate.build(d, dp, matching)
                    if verify_certificate(g, cert):
                        return cert, "pool-search"

    result = dd_m_exact(g)
    if result.status != FINITE:
        # reachable: a vertex with two pendant neighbors blocks every swap
        # pair regardless of independence number, so the claimed existence
        # guarantee has counterexamples among strong graphs
        raise AssertionError(
            "no swap set exists for this graph: the alpha=3 existence "
            "guarantee fails on graphs with a strong stem")
    return result.certificate, "fallback"


def alpha3_swap_exists(g: Graph) -> SwapCertificate:
    """A verified swap certificate for a connected graph on at least six
    vertices with independence number 3.  Such a graph has a swap set iff it
    has no strong stem (a vertex with two or more pendant neighbors); on a
    strong graph this raises AssertionError, as alpha3_swap_with_stage does."""
    cert, _ = alpha3_swap_with_stage(g)
    return cert


# ---------------------------------------------------------------------------
# scan reports

@dataclass
class ScanReport:
    n_range: tuple[int, int]
    filter_desc: str
    records: list[CensusRecord] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        # the stage column stays for readers of the format; it is always empty
        lines = ["graph_id\tn\talpha\tgamma\tddm\tcert_size\tstage"]
        for r in self.records:
            size = "" if r.cert_size is None else str(r.cert_size)
            lines.append(f"{r.graph_id}\t{r.n}\t{r.alpha}\t{r.gamma}\t{r.ddm}\t{size}\t")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "filter": self.filter_desc,
            "records": [{
                "graph_id": r.graph_id, "n": r.n, "alpha": r.alpha,
                "gamma": r.gamma, "ddm": r.ddm, "cert_size": r.cert_size,
                "stage": None,
            } for r in self.records],
            "counterexamples": self.counterexamples,
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def alpha3_bound_check(scope_n: int) -> ScanReport:
    """Exhaustive check that every connected graph up to scope_n with
    independence number 3 and a swap set has swap number at most 3."""
    records = [r for r in census(scope_n) if r.alpha == 3 and r.ddm != "infinity"]
    report = ScanReport((1, scope_n), "alpha=3 with a swap set", records)
    report.counterexamples = [{
        "graph": format_graph(r.graph),
        "claim": "swap number exceeds independence number 3",
        "ddm": r.ddm,
    } for r in records if r.ddm > 3]
    return report


def conjecture_scan(scope_n: int) -> ScanReport:
    """Empirical data for two conjectures: that the swap number never
    exceeds the independence number when a swap set exists, and that for
    each independence number there is an order beyond which swap sets always
    exist.  Also evaluates the nine-vertex doubled-subdivided triangle that
    motivated the second conjecture's threshold discussion."""
    report = ScanReport((1, scope_n), "all connected graphs", census(scope_n))
    no_swap: dict = {}
    for rec in report.records:
        if rec.ddm == "infinity":
            entry = no_swap.setdefault(rec.alpha, {"max_n": 0, "count_at_max": 0,
                                                   "example": None})
            if rec.n > entry["max_n"]:
                entry.update(max_n=rec.n, count_at_max=1, example=rec.graph_id)
            elif rec.n == entry["max_n"]:
                entry["count_at_max"] += 1
        elif rec.ddm > rec.alpha:
            report.counterexamples.append({
                "graph": format_graph(rec.graph),
                "claim": "swap number exceeds independence number",
                "ddm": rec.ddm,
                "alpha": rec.alpha,
            })
    nine = subdivided_doubled_triangle()
    nine_rec = CensusRecord(nine, canonical_id(nine))
    report.extras["no_swap_table"] = no_swap
    report.extras["nine_vertex_example"] = {
        "graph_id": nine_rec.graph_id,
        "alpha": nine_rec.alpha,
        "ddm": nine_rec.ddm,
        "in_no_swap_table": nine_rec.ddm == "infinity",
    }
    return report
