"""Swap sets for graphs with small independence number, and exhaustive
small-graph scans.

For a connected graph with independence number 2 (more than three
vertices) or 3 (at least six vertices) one construction builds the swap
pair: D is the lexicographically least maximum independent set, which
dominates, and D' is the first dominating tuple that takes one distinct
neighbor of each member of D, so D' is disjoint from D and matched to it.
For independence number 2 a swap pair of size two always exists, and the
construction finds one on every such graph up to 8 vertices.  For
independence number 3 a swap set exists iff the graph has no strong stem, a
vertex with two or more pendant neighbors, which rules out every swap pair;
the construction succeeds on every non-strong graph the package scans, and
the exact solver stands behind it.  The census of small connected graphs, generated by
orbit-pruned vertex extension, drives empirical scans of two open
conjectures.  A child that a degree-sequence test proves to be a copy of an
earlier parent's child is dropped before it is labelled, so census(7)
labels 1,486 graphs for its 996 classes, and census(8) 33,694 for 12,113.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from operator import or_
from typing import Sequence

from .exact_solver import FINITE, dd_m_exact
from .graph_core import (
    BudgetError,
    ConstructionError,
    ContractError,
    Graph,
    SwapCertificate,
    _split_map,
    certified,
    domination_number,
    format_graph,
    independence_number,
    is_connected,
    subdivided_doubled_triangle,
)


# ---------------------------------------------------------------------------
# canonical forms and enumeration

@lru_cache(maxsize=None)
def _order_table(n: int) -> tuple[list[int], int]:
    """The refinement constants of an n-vertex graph: the weights
    n**(n-1-c) per color c and the signature shift n**n."""
    return [n ** (n - 1 - c) for c in range(n)], n ** n


def _refine(adj: Sequence, colors: list[int], count: int, table: tuple) -> list[int]:
    """Stable partition refinement of a ranked coloring with count colors:
    a vertex's color absorbs the multiset of its neighbors' colors.  Returns
    the colors as ranks 0..k-1.

    The coloring must be finer than the degree partition, so the vertices
    of one cell have equally many neighbors.  Their sorted tuples of
    neighbor colors then compare in the reverse order of the sums of
    n**(n-1-c) over those colors c: base-n numbers whose digit for color c
    counts the neighbors of that color, which never reaches n.  A signature
    is the old color times n**n minus that sum, so a pass only splits cells
    and keeps their order.  A pass that splits nothing has ranked an
    equitable partition and returns the colors unchanged; a discrete
    coloring is equitable, so it needs no pass at all."""
    n = len(adj)
    weights, shift = table
    while count < n:
        weight = list(map(weights.__getitem__, colors)).__getitem__
        signatures = [c * shift - sum(map(weight, nbrs)) for c, nbrs in zip(colors, adj)]
        distinct = set(signatures)
        if len(distinct) == count:
            return colors
        count = len(distinct)
        colors = list(map(sorted(distinct).index, signatures))
    return colors


def _equitable(adj: Sequence, table: tuple) -> list[int]:
    """The coarsest equitable coloring, refined from the degree ranks, which
    are what a first pass from the uniform coloring would compute."""
    degrees = list(map(len, adj))
    distinct = sorted(set(degrees))
    return _refine(adj, list(map(distinct.index, degrees)), len(distinct), table)


def _label(adj: Sequence, opens: Sequence[int], edges) -> tuple[int, list[list[int]]]:
    """The canonical encoding of the graph with these neighbor tuples, open
    neighborhood masks and edges, and generators of its automorphism group
    as lists of vertex images; canonical_form and the census both label
    through it.

    Individualization-refinement (McKay and Piperno, J. Symbolic Comput.
    60, 2014): refine by color, split the first non-singleton cell on each
    of its vertices in turn, and take the minimum encoding over the discrete
    orderings reached.  Cells whose vertices are provably interchangeable
    (one exact outside neighborhood, inducing a clique or an empty graph)
    are split only once.  An individualized vertex takes a new last color.
    The encoding sets bit a*n + b for every edge whose endpoints sit at
    positions a < b.

    A child of the root is skipped when its vertex lies in the orbit, under
    the generators found so far, of a child searched before it: an
    automorphism carries the searched child's subtree onto the skipped one,
    leaf encodings included, so the least encoding is still reached.
    Children are individualized and refined only when popped, so a skipped
    child costs no refinement.

    The generators are the swaps of a cell split only once, first vertex
    with each other one, unless an earlier such cell's swaps already permute
    it every way, and for each later leaf of the best encoding so far the
    map sending each vertex to the vertex at its position in the first leaf
    of that encoding.  They generate Aut(G), which maps the unpruned tree
    onto itself and leaves onto leaves of equal encoding.  The generated
    group holds the swaps of every cell split only once; such a swap fixes
    its node and carries each pruned subtree onto the kept one.  Let a be
    an automorphism; it maps the first leaf of the least encoding to a leaf
    of that encoding below some child w of the root.  If w was skipped, a
    generated h maps w onto a searched child, else let h be the identity.
    Below a searched child every leaf of that encoding is, up to those
    swaps, visited: the first leaf or one that yielded a generator.  So h
    after a is generated, and so is a."""
    n = len(adj)
    table = _order_table(n)
    best = None
    generators = []
    swapped = {}  # vertex -> a cell holding it that the generators permute every way
    root = _equitable(adj, table)
    explored = []  # the root's children searched so far, by individualized vertex
    # a ranked coloring, its number of colors, and the vertex to individualize in it
    stack = [(root, max(root, default=-1) + 1, None)]
    while stack:
        colors, count, chosen = stack.pop()
        if chosen is not None:
            if colors is root:
                if generators and chosen in _orbit(explored, generators):
                    continue
                explored.append(chosen)
            # individualized only now, so a pruned child costs no refinement
            colors = colors[:]
            colors[chosen] = count
            count += 1
            # a coloring made discrete here is already ranked and equitable
            if count < n:
                colors = _refine(adj, colors, count, table)
                count = max(colors) + 1
        if count == n:
            # discrete: each vertex's color is its position
            code = 0
            for u, v in edges:
                a, b = colors[u], colors[v]
                code |= 1 << (a * n + b if a < b else b * n + a)
            if best is None or code < best:
                best = code
                first = sorted(range(n), key=colors.__getitem__)
            elif code == best:
                generators.append(list(map(first.__getitem__, colors)))
            continue
        ordered = sorted(colors)
        target = next(c for c, d in zip(ordered, ordered[1:]) if c == d)
        cell = [v for v, c in enumerate(colors) if c == target]
        inside = sum([1 << v for v in cell])
        outside = opens[cell[0]] & ~inside
        if ({(opens[v] & inside).bit_count() for v in cell} in ({0}, {len(cell) - 1})
                and all(opens[v] & ~inside == outside for v in cell)):
            if inside & ~swapped.get(cell[0], 0):
                for v in cell[1:]:
                    swap = list(range(n))
                    swap[cell[0]], swap[v] = v, cell[0]
                    generators.append(swap)
                swapped.update(dict.fromkeys(cell, inside))
            del cell[1:]
        stack.extend((colors, count, v) for v in cell)
    return best, generators


def _orbit(points: list[int], generators: list[list[int]]) -> set[int]:
    """The orbit of these points under the group the vertex maps generate."""
    orbit = set(points)
    todo = list(points)
    for v in todo:
        unseen = {sigma[v] for sigma in generators} - orbit
        orbit |= unseen
        todo += unseen
    return orbit


def canonical_form(g: Graph) -> int:
    """Canonical adjacency encoding, equal exactly for isomorphic graphs
    (see _label)."""
    return _label(g._adj, g._open, g.edges)[0]


def _orbit_least_masks(n: int, generators: list[list[int]]):
    """The nonempty masks of n vertices that are least in their orbit under
    the group these vertex maps generate, ascending.  The first unseen mask
    of each orbit is its least; the orbit is then closed under the
    generators.  Each generator's mask images are one table, built by
    doubling: the images of the masks below bit v, then the same with v's
    image bit added."""
    masks = range(1, 1 << n)
    if not generators:
        return masks
    images = []
    for sigma in generators:
        image = [0]
        for v in range(n):
            bit = 1 << sigma[v]
            image += [x | bit for x in image]
        images.append(image)
    seen = bytearray(1 << n)
    least = []
    for mask in masks:
        if not seen[mask]:
            least.append(mask)
            seen[mask] = 1
            orbit = [mask]
            for member_mask in orbit:
                for image in images:
                    x = image[member_mask]
                    if not seen[x]:
                        seen[x] = 1
                        orbit.append(x)
    return least


def _graph_id(n: int, code: int) -> str:
    return f"{n}-{code:x}"


def canonical_id(g: Graph) -> str:
    return _graph_id(g.n, canonical_form(g))


# ---------------------------------------------------------------------------
# the census of small connected graphs

MAX_CENSUS_N = 8


class CensusRecord:
    """One isomorphism class of connected graphs: its representative and
    id, with alpha, gamma and the swap number computed on first use."""

    def __init__(self, graph: Graph, graph_id: str):
        self.graph = graph
        self.graph_id = graph_id

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

    @cached_property
    def matched(self) -> bool:
        """Whether _matched_swap gives this record, inside the construction's
        domain (_MATCHED_MIN_N), a pair of size alpha; the pair is checked
        through certified, so a swap set exists and the swap number is at most alpha."""
        return (self.alpha in _MATCHED_MIN_N and self.n >= _MATCHED_MIN_N[self.alpha]
                and _matched_swap(self.graph, self.alpha) is not None)

    @property
    def cert_size(self) -> int | None:
        """Size of the certificate behind ddm, None when there is none."""
        return None if self.ddm == "infinity" else self.ddm

    @staticmethod
    def fill(records: list[CensusRecord], names: tuple[str, ...]) -> None:
        """Compute the named values among alpha, gamma, ddm and matched for
        each of these records that lacks one, through _split_map, so a
        scan's solves share two cores and each value is still computed
        once."""
        todo = [r for r in records if not all(name in r.__dict__ for name in names)]
        values = _split_map(lambda r: [getattr(r, name) for name in names], todo)
        for rec, row in zip(todo, values):
            rec.__dict__.update(zip(names, row))


def census(max_n: int) -> list[CensusRecord]:
    """One record per isomorphism class of connected graphs on 1..max_n
    vertices, ordered by n and then by canonical encoding.  Every exhaustive
    scan is a filter over these records."""
    if max_n > MAX_CENSUS_N:
        raise BudgetError(f"census capped at n={MAX_CENSUS_N}, got n={max_n}")
    return [rec for n in range(1, max_n + 1) for rec, _ in _classes(n)]


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[CensusRecord, list[list[int]]], ...]:
    """The census records on exactly n vertices, each with generators of
    its representative's automorphism group.

    Generated by extending each (n-1)-vertex class with a new vertex
    attached to a nonempty neighborhood; every connected graph arises this
    way because it has a non-cut vertex.  Only neighborhoods least in their
    orbit under the parent's automorphisms are tried (McKay, J. Algorithms
    26, 1998): an automorphism mapping S to S' extends, fixing the new
    vertex, to an isomorphism of the two children, so the least mask of an
    orbit comes first in the ascending loop and the first child of every
    class, the one kept as its representative, is still generated.

    A child that is provably not the first of its class is dropped before
    it is labelled (see _first_children); the others are labelled from
    their parent's neighbor tuples, open masks and edges, extended by the
    new vertex, and a Graph is built only for the first child of each code.
    The generators its labelling found are kept with it, so the next level
    labels no parent again.  No level extends the records at MAX_CENSUS_N,
    so they keep no generators."""
    if n == 1:
        code, generators = _label([()], [0], [])
        return ((CensusRecord(Graph(1, []), _graph_id(1, code)), generators),)
    return tuple((CensusRecord(graph, _graph_id(n, code)), generators)
                 for code, (graph, generators) in sorted(_first_children(n).items()))


def _first_children(n: int) -> dict[int, tuple[Graph, list[list[int]]]]:
    """code -> (Graph, generators) of the first child of each class on n
    vertices (see _classes), one job per parent and orbit-least mask, in
    that order.

    A job whose child is a later copy is dropped unlabelled.  Let C be the
    child of parent P_p, and w an old vertex such that C - w is connected
    and every parent with C - w's sorted degree sequence has an index below
    p.  Then C - w is isomorphic to some P_q with q < p, so C is also the
    child of an orbit-least job of parent q, which comes first.  The test
    costs a sorted tuple and a dict lookup per w, and a walk over the open
    masks only when the lookup passes.  It drops 215 of 333 jobs at n = 6,
    2,434 of 3,771 at n = 7 and 34,933 of 67,141 at n = 8.

    The jobs are tested and labelled through _split_map, whose two
    processes take alternate jobs: late parents have most of their jobs
    dropped, so halves would leave most labels to the first process.  The
    merge keeps the first job of each code, in job order, so the records are
    those of the serial loop.  The jobs and codes are freed on return,
    before _classes builds its records."""
    top = n - 1
    parents = _classes(top)
    shapes = [(rec.graph._adj, rec.graph._open, rec.graph.edges) for rec, _ in parents]
    # the largest index of a parent with each sorted degree sequence
    last = {tuple(sorted(map(len, adj))): p for p, (adj, _, _) in enumerate(shapes)}
    from array import array  # here, so that importing the package skips it

    # one machine word per job: the parent's index above the mask
    jobs = array("q", (i << top | mask for i, (_, generators) in enumerate(parents)
                       for mask in _orbit_least_masks(top, generators)))
    low = (1 << top) - 1
    keep = n < MAX_CENSUS_N

    def label(job):
        p, mask = job >> top, job & low
        adj, opens, _ = shape = shapes[p]
        if _copies_an_earlier_parent(adj, opens, mask, p, last):
            return None
        code, generators = _label(*_child(*shape, mask))
        return code, generators if keep else ()

    out: dict[int, tuple[Graph, list[list[int]]]] = {}
    for job, first in zip(jobs, _split_map(label, jobs)):
        if first is not None and first[0] not in out:
            out[first[0]] = Graph(n, _child(*shapes[job >> top], job & low)[2]), first[1]
    return out


def _copies_an_earlier_parent(adj: Sequence, opens: Sequence[int], mask: int, p: int,
                              last: dict) -> bool:
    """Whether removing some old vertex w from the child of parent p with
    these neighbor tuples and open masks, and of this mask, leaves a
    connected graph whose sorted degree sequence only parents below index p
    have (see _first_children).  The child is read from its parent: C - w is
    connected iff a walk over P - w from the new vertex's neighbors reaches
    every vertex of P - w."""
    top = len(adj)
    degrees = [len(nbrs) + (mask >> u & 1) for u, nbrs in enumerate(adj)]
    degrees.append(mask.bit_count())
    for w in range(top):
        rest = degrees[:]
        for u in adj[w]:
            rest[u] -= 1
        rest[top] -= mask >> w & 1
        del rest[w]
        if last.get(tuple(sorted(rest)), p) < p:
            remaining = (1 << top) - 1 ^ 1 << w
            reached = todo = mask & remaining
            while todo:
                v = todo.bit_length() - 1
                todo ^= 1 << v
                grown = opens[v] & remaining & ~reached
                reached |= grown
                todo |= grown
            if reached == remaining:
                return True
    return False


def _child(adj: Sequence, opens: Sequence[int], edges, mask: int) -> tuple[list, list[int], list]:
    """The neighbor tuples, open masks and edges of a graph with these
    extended by a new last vertex attached to the members of mask."""
    top = len(adj)
    new_bit = 1 << top
    members = [u for u in range(top) if mask >> u & 1]
    child_adj = [nbrs + (top,) if mask >> u & 1 else nbrs for u, nbrs in enumerate(adj)]
    child_adj.append(tuple(members))
    child_opens = [m | new_bit if mask >> u & 1 else m for u, m in enumerate(opens)]
    child_opens.append(mask)
    return child_adj, child_opens, [*edges, *((u, top) for u in members)]


def enumerate_connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class,
    ordered by canonical encoding."""
    if n < 1:
        raise ContractError("n must be positive")
    return tuple(rec.graph for rec in census(n) if rec.n == n)


def _lex_max_independent_set(g: Graph, alpha: int) -> tuple[int, ...]:
    """The least alpha-tuple of pairwise non-adjacent vertices, tested on
    the graph's open-neighbourhood masks."""
    opens = g._open
    for cand in combinations(range(g.n), alpha):
        if not any(opens[u] >> v & 1 for u, v in combinations(cand, 2)):
            return cand
    raise ConstructionError("independence number was wrong")


def _matched_partner(g: Graph, i_set: tuple[int, ...]) -> SwapCertificate | None:
    """The certificate pairing i_set with the lexicographically first tuple
    of distinct neighbors, one per member of i_set, that dominates, or None
    when no such tuple exists.  Domination is tested on the graph's closed
    neighbourhood masks.

    i_set must be a maximum independent set: it then dominates, as every
    maximal independent set does, and each tuple is disjoint from it and
    matched to it member by member."""
    closed, full = g._closed, g.full_mask
    for j in product(*map(g.neighbors, i_set)):
        if len(set(j)) == len(j) and reduce(or_, map(closed.__getitem__, j), 0) == full:
            return certified(g, SwapCertificate.build(i_set, j, zip(i_set, j)))
    return None


def _matched_swap(g: Graph, alpha: int) -> SwapCertificate | None:
    """The partner certificate of g's lexicographically least maximum
    independent set, for a connected g of independence number alpha."""
    return _matched_partner(g, _lex_max_independent_set(g, alpha))


# the least order, by independence number, the matched-partner construction covers
_MATCHED_MIN_N = {2: 4, 3: 6}


def _require_small_alpha(g: Graph, alpha: int, name: str) -> None:
    """Refuse g unless it lies in the construction's domain for alpha."""
    if not is_connected(g):
        raise ContractError(f"{name} needs a connected graph")
    if g.n < _MATCHED_MIN_N[alpha]:
        raise ContractError(f"{name} needs at least {_MATCHED_MIN_N[alpha]} vertices")
    if independence_number(g) != alpha:
        raise ContractError(f"{name} needs independence number exactly {alpha}")


# ---------------------------------------------------------------------------
# independence number 2

def alpha2_swap(g: Graph) -> SwapCertificate | None:
    """Size-2 swap certificate for a connected graph with independence
    number 2 on more than three vertices, or None if no partner is found.

    D is the lexicographically least maximum independent set {u,v}; D' is
    the first dominating pair from N(u) x N(v).  Every dominating pair in
    N({u,v}) with a perfect matching to {u,v} is such a pair, so none is
    missed.
    """
    _require_small_alpha(g, 2, "alpha2_swap")
    return _matched_swap(g, 2)


# ---------------------------------------------------------------------------
# independence number 3

def alpha3_swap_with_stage(g: Graph) -> tuple[SwapCertificate, str] | None:
    """Swap certificate plus the name of the stage that produced it:
    "matched-dominating" when the lexicographically least maximum
    independent set has a dominating partner of one distinct neighbor per
    member, and "fallback" when the exhaustive solver finds a pair instead.

    Returns None when the exhaustive solver finds no swap pair.  That
    happens exactly when g has a strong stem (a vertex with two or more
    pendant neighbors), so the alpha = 3 existence guarantee fails on
    strong graphs.  The first stage succeeds on every non-strong graph with
    6..8 vertices, and on all of 182,279 seeded random ones with 9..24
    vertices (dense random graphs, and three cliques joined by sparse cross
    edges).  Were it to fail on a graph with more than MAX_DOMINATION_N (30)
    vertices, the fallback would raise BudgetError."""
    _require_small_alpha(g, 3, "alpha3_swap")
    cert = _matched_swap(g, 3)
    if cert is not None:
        return cert, "matched-dominating"
    result = dd_m_exact(g)
    if result.status != FINITE:
        return None
    return result.certificate, "fallback"


# ---------------------------------------------------------------------------
# scan reports

class ScanReport:
    def __init__(self, n_range: tuple[int, int], filter_desc: str,
                 records: list[CensusRecord]):
        self.n_range = n_range
        self.filter_desc = filter_desc
        self.records = records
        self.counterexamples: list[dict] = []
        self.extras: dict = {}

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


def _alpha_records(max_n: int, alpha: int) -> list[CensusRecord]:
    """The census records up to max_n of this independence number, the one
    source of the alpha-2 scan and both alpha-3 scans.  The matched-partner
    construction runs in-process on these records only, where the ddm
    filter reads it (a fill of its own forked once more for 14 ms of work at
    max_n 7).  The exact swap number is solved only where it misses, as
    elsewhere its checked pair proves a swap set and a swap number of at
    most alpha: for alpha 3, 16 solves instead of 596 at max_n 7, and 21
    instead of 6,459 at max_n 8."""
    records = census(max_n)
    CensusRecord.fill(records, ("alpha",))
    records = [r for r in records if r.alpha == alpha]
    CensusRecord.fill([r for r in records if not r.matched], ("ddm",))
    return records


def alpha3_bound_check(scope_n: int) -> ScanReport:
    """Exhaustive check that every connected graph up to scope_n with
    independence number 3 and a swap set has swap number at most 3.  Only
    the records the matched-partner construction misses are solved exactly
    (see _alpha_records)."""
    records = [r for r in _alpha_records(scope_n, 3) if r.matched or r.ddm != "infinity"]
    report = ScanReport((1, scope_n), "alpha=3 with a swap set", records)
    report.counterexamples = [{
        "graph": format_graph(r.graph),
        "claim": "swap number exceeds independence number 3",
        "ddm": r.ddm,
    } for r in records if not r.matched and r.ddm > 3]
    return report


def conjecture_scan(scope_n: int) -> ScanReport:
    """Empirical data for two conjectures: that the swap number never
    exceeds the independence number when a swap set exists, and that for
    each independence number there is an order beyond which swap sets always
    exist.  Also evaluates the nine-vertex doubled-subdivided triangle that
    motivated the second conjecture's threshold discussion."""
    report = ScanReport((1, scope_n), "all connected graphs", census(scope_n))
    CensusRecord.fill(report.records, ("alpha", "gamma", "ddm"))
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
