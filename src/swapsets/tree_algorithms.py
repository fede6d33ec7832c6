"""Tree machinery: star partitionings, weak reduction, and tree swap numbers.

The minimum weight S(T) of a simple star partitioning of a non-trivial tree
equals the tree's swap number whenever the tree is weak (no vertex has two or
more leaf neighbors), and a minimum partition converts into a swap
certificate in one top-down pass over the breadth-first order: each K1
center hands the labels it still lacks to the K2 parts of its children, and
every other K2 part puts its lower endpoint in D.  The DP, the labeling and
the check of the certificate are each linear in the tree.  Strong trees have
no swap pair, but S(T) still makes sense and reduces leaf-by-leaf to the weak
reduction: each stripped leaf adds one to the weight and rejoins its stem's
star part on the way back out.
"""

from __future__ import annotations

from .exact_solver import DdmResult, INFINITE, finite_result
from .graph_core import (
    ConstructionError,
    ContractError,
    Graph,
    SwapCertificate,
    _Frozen,
    bfs_tree,
    certified,
    is_strong_graph,
)

_INF = 10 ** 9


def _rooted(t: Graph):
    """(parent, order) for t rooted at vertex 0: the breadth-first walk,
    which is also the tree check: it must reach all n vertices over n - 1
    edges."""
    parent, order = bfs_tree(t)
    if len(order) != t.n or len(t.edges) != t.n - 1:
        raise ContractError("expected a tree")
    return parent, order


# ---------------------------------------------------------------------------
# star partitions

class StarPartition(_Frozen):
    """Vertex partition into induced stars; weight is n minus the part count.

    Each part is (center, leaves) with leaves sorted; a K1 part has no
    leaves; a K2 part's center is its lower-index endpoint.  Parts are kept
    sorted by center.
    """

    __slots__ = ("parts", "weight")

    def __init__(self, parts: tuple[tuple[int, tuple[int, ...]], ...], weight: int):
        self._set(parts, weight)

    @classmethod
    def build(cls, raw_parts) -> "StarPartition":
        norm = []
        total = 0
        for center, leaves in raw_parts:
            members = sorted({center, *leaves})
            total += len(members) - 1
            if len(members) == 1:
                norm.append((members[0], ()))
            elif len(members) == 2:
                norm.append((members[0], (members[1],)))
            else:
                norm.append((center, tuple(v for v in members if v != center)))
        return cls(tuple(sorted(norm)), total)

    def to_json_dict(self) -> dict:
        return {
            "parts": [{"center": c, "leaves": list(ls)} for c, ls in self.parts],
            "weight": self.weight,
        }


# ---------------------------------------------------------------------------
# weak trees and weak reduction

def is_weak_tree(t: Graph) -> bool:
    """True iff no vertex of the tree has two or more leaf neighbors."""
    _rooted(t)
    return not is_strong_graph(t)


class WeakReduction(_Frozen):
    """Result of stripping all but the lowest-index leaf from each strong stem.

    embedding maps reduced vertex ids back to the original tree; removed
    lists (stem, leaf) pairs in original labels.
    """

    __slots__ = ("reduced", "removed", "embedding")

    def __init__(self, reduced: Graph, removed: tuple[tuple[int, int], ...],
                 embedding: tuple[int, ...]):
        self._set(reduced, removed, embedding)


def weak_reduction(t: Graph) -> WeakReduction:
    """The weak reduction of a tree, relabeled; a weak tree is its own
    reduction."""
    removed, _ = _reduce(t)
    if not removed:
        return WeakReduction(t, (), tuple(range(t.n)))
    drop = {u for _, u in removed}
    keep = [v for v in range(t.n) if v not in drop]
    index = {v: i for i, v in enumerate(keep)}
    # t.edges are sorted and index keeps their order, so the reduced edges
    # arrive sorted
    edges = [(index[u], index[v]) for u, v in t.edges if u not in drop and v not in drop]
    return WeakReduction(Graph(len(keep), edges), removed, tuple(keep))


def _reduce(t: Graph):
    """The (stem, leaf) pairs the weak reduction strips from a tree, sorted,
    and the walk _rooted(t) that checked it."""
    walk = _rooted(t)
    kept_leaf = [-1] * t.n
    removed = []
    # leaves in ascending order, so each stem keeps its lowest-index leaf
    for u, nbrs in enumerate(map(t.neighbors, range(t.n))):
        if len(nbrs) == 1:
            (v,) = nbrs
            if kept_leaf[v] == -1:
                kept_leaf[v] = u
            else:
                removed.append((v, u))
    return tuple(sorted(removed)), walk


# ---------------------------------------------------------------------------
# S(T) dynamic program on weak trees

# Per-vertex states for the K1/K2-only partition DP:
#   P  - in a K2 part with its parent (the pair's weight charged at the parent)
#   C  - in a K2 part with one child
#   K0 - a K1 part already adjacent to >= 2 non-K1 child parts
#   K1 - a K1 part adjacent to exactly 1 so far; the parent's part must be a K2
# A K1 part with no non-K1 child parts can never be rescued by its single
# parent, so that configuration is simply infeasible.

def _weak_partition_dp(t: Graph, walk) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Minimum-weight K1/K2 simple star partitioning of a weak non-trivial
    tree, over its walk (parent, order).  The tree is the one the walk
    reaches, so an order without some of t's leaves solves t with those
    leaves stripped.

    Returns (weight, parts).  Weight counts the K2 parts.  Ties break toward
    pairing with the parent, then toward the lower-index child partner.

    Costs live in flat per-vertex lists, _INF where a state is infeasible,
    and best[v] is the least of C, K0 and K1.  The traceback re-derives each
    child's state from them with the tie rules of the forward pass.
    """
    n = t.n
    parent, order = walk
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    root = order[0]
    # stem_leaf[v]: v's only leaf neighbour, which its part must be a K2
    # with.  The root is a leaf when it has one child; every other leaf
    # reaches its stem on the way up, before the stem is solved.
    stem_leaf = [-1] * n
    if len(children[root]) == 1:
        stem_leaf[children[root][0]] = root

    cost_p, cost_c, cost_k0, cost_k1 = ([_INF] * n for _ in range(4))
    best = [_INF] * n
    partner = [-1] * n

    for v in reversed(order):
        cs = children[v]
        f = stem_leaf[v]
        if not cs:
            # a leaf (never the root of a tree on two or more vertices) can
            # only pair with its parent
            if f == -1 or f == parent[v]:
                cost_p[v] = 0
            if stem_leaf[parent[v]] != -1:
                raise ContractError("partition DP requires a weak tree")
            stem_leaf[parent[v]] = v
            continue
        base = sum(map(best.__getitem__, cs))
        # state P: pair with parent; children settle on C/K0/K1
        if parent[v] != -1 and (f == -1 or f == parent[v]) and base < _INF:
            cost_p[v] = base
        # state C: pair with one child in state P, the first of least cost
        if f == -1 or parent[f] == v:
            delta, c_star = _INF, -1
            for c in ((f,) if f != -1 else cs):
                d = cost_p[c] - best[c]
                if d < delta:
                    delta, c_star = d, c
            if c_star != -1 and base + delta < _INF:
                cost_c[v] = 1 + base + delta
                partner[v] = c_star
        # states K0/K1: v is a K1 part; children settle on C (counts) or K0.
        # A K-state short of C children is left infeasible: upgrading a K0
        # child c to C costs cost_c[c] >= 1 + base_c (as cost_c[c] >
        # cost_k0[c] >= base_c), while pairing v with c in state P costs no
        # more, so state C is at least as cheap and wins the tie.
        if f == -1:
            total = have = 0
            for c in cs:
                c_cost, k_cost = cost_c[c], cost_k0[c]
                if c_cost <= k_cost:
                    total += c_cost
                    have += 1
                else:
                    total += k_cost
            if total < _INF:
                if have >= 1:
                    cost_k1[v] = total
                if have >= 2:
                    cost_k0[v] = total
        best[v] = min(cost_c[v], cost_k0[v], cost_k1[v])

    if min(cost_c[root], cost_k0[root]) >= _INF:
        raise ConstructionError("no simple star partitioning found on a weak tree")
    root_c = cost_c[root] <= cost_k0[root]

    # parents precede children in the walk, so each vertex's state is known
    # by the time it is reached
    state = ["P"] * n
    state[root] = "C" if root_c else "K0"
    parts: list[tuple[int, tuple[int, ...]]] = []
    for v in order:
        s = state[v]
        cs = children[v]
        if s == "K0" or s == "K1":
            parts.append((v, ()))
            for c in cs:
                state[c] = "C" if cost_c[c] <= cost_k0[c] else "K0"
            continue
        for c in cs:
            b = best[c]
            state[c] = "C" if cost_c[c] == b else "K0" if cost_k0[c] == b else "K1"
        if s == "C":
            w = partner[v]
            state[w] = "P"
            parts.append((v, (w,)) if v < w else (w, (v,)))
    return (cost_c[root] if root_c else cost_k0[root]), parts


def s_weight(t: Graph) -> tuple[int, StarPartition]:
    """Exact minimum weight of a simple star partitioning, with a witness:
    the partition analyse_tree computes."""
    partition = analyse_tree(t).partition
    return partition.weight, partition


# ---------------------------------------------------------------------------
# Swap certificate from a K1/K2 partition

def _label_partition(t: Graph, p: StarPartition, walk) -> SwapCertificate:
    """Convert a K1/K2 simple star partitioning of a weak tree into a swap
    certificate of the same size, in one pass down its walk _rooted(t).

    Each K2 part contributes one endpoint to D and the other to D', matched
    along the part's edge; by default its lower-index endpoint goes to D.
    A K1 center u needs a neighbor of each label.  Walking the tree from
    vertex 0 in breadth-first order, u's parent is labeled before u is
    reached, while each child of u in a K2 part pairs with a vertex below it
    and is still unlabeled; u hands the labels it lacks, D before D', to
    those children in ascending order.  The partition conditions give u two
    such neighbor parts, so no label is ever revisited.  The partition is
    unchecked: callers pass the K1/K2 partition that the DP builds for a
    weak tree.
    """
    parent, order = walk
    mate = [-1] * t.n
    for c, leaves in p.parts:
        if leaves:
            (w,) = leaves
            mate[c], mate[w] = w, c
    in_d: list[bool | None] = [None] * t.n  # None until the vertex's part is labeled
    for u in order:
        w = mate[u]
        if w != -1:
            if in_d[u] is None:
                in_d[u], in_d[w] = u < w, w < u
            continue
        lacking = [True, False]  # D, D'
        pu = parent[u]
        if pu != -1 and mate[pu] != -1:
            lacking.remove(in_d[pu])
        # in a tree walked breadth-first, u's children are its neighbors
        # other than its parent, ascending
        for c in t.neighbors(u):
            if lacking and c != pu and mate[c] != -1:
                side = lacking.pop(0)
                in_d[c], in_d[mate[c]] = side, not side

    d = [v for v in range(t.n) if in_d[v]]
    d_prime = [v for v in range(t.n) if in_d[v] is False]
    return SwapCertificate.build(d, d_prime, [(v, mate[v]) for v in d])


def dd_m_tree(t: Graph) -> DdmResult:
    """Swap number of a non-trivial tree: infinite iff the tree is strong,
    otherwise S(t) with a certificate built from a minimum partition."""
    removed, walk = _reduce(t)
    # a strong stem has two leaves, so a strong tree is non-trivial
    return DdmResult(INFINITE) if removed else _analysis(t, removed, walk).result


class TreeAnalysis(_Frozen):
    """Everything `swapsets tree` reports about a non-trivial tree, from one
    walk and one partition DP: the walk that checks the tree also roots it
    for the DP, which solves the weak reduction in place, and for the
    labeling."""

    __slots__ = ("n", "removed", "reduced_weight", "partition", "result",
                 "four_way_equality")

    def __init__(self, n: int,
                 removed: tuple[tuple[int, int], ...],  # the (stem, leaf) pairs stripped
                 reduced_weight: int,  # S(T') of the weak reduction T'
                 partition: StarPartition,  # a minimum simple star partitioning of T
                 result: DdmResult, four_way_equality: bool):
        self._set(n, removed, reduced_weight, partition, result, four_way_equality)

    def to_json_dict(self) -> dict:
        weak = not self.removed
        return {
            "n": self.n,
            "is_weak": weak,
            "s_weight": self.partition.weight,
            "partition": self.partition.to_json_dict(),
            "reduction_removed": len(self.removed),
            "result": self.result.to_json_dict(),
            "gamma_equals_alpha": self.four_way_equality,
            "alpha_equals_swap_number": weak and 2 * self.partition.weight == self.n,
            "alpha_equals_eviction": 2 * self.reduced_weight == self.n - len(self.removed),
        }


def analyse_tree(t: Graph) -> TreeAnalysis:
    """S(T), its partition, the swap number and the equality flags of a
    non-trivial tree, each derived from a single DP on the weak reduction:
    the tree is weak iff the reduction removed nothing, alpha = DD_m iff it
    is weak with 2 S(T) = n, and alpha = eviction iff 2 S(T') = |T'|.
    gamma, eviction, swap and independence numbers are all equal exactly on
    hats: the weak trees that are K2 or whose leaves are half their
    vertices, since each leaf then has a stem of its own."""
    return _analysis(t, *_reduce(t))


def _analysis(t: Graph, removed, walk) -> TreeAnalysis:
    """analyse_tree on t, the (stem, leaf) pairs its weak reduction T'
    strips and its walk _rooted(t).  The DP solves T' in place, on the walk
    without the stripped leaves; then each stripped leaf rejoins its stem's
    part (the stem becomes the center of a bigger star) and adds 1 to the
    weight."""
    if t.n < 2:
        raise ContractError("expected a non-trivial tree")
    extra: dict[int, list[int]] = {}
    for stem, leaf in removed:
        extra.setdefault(stem, []).append(leaf)
    drop = {leaf for _, leaf in removed}
    parent, order = walk
    w_red, parts = _weak_partition_dp(t, (parent, [v for v in order if v not in drop]))
    by_center = [None] * t.n
    for part in parts:
        c, leaves = part
        # a strong stem pairs with its kept leaf, the lowest of its leaves
        if c in extra:
            part = (c, (*leaves, *extra[c]))
        elif leaves and leaves[0] in extra:
            part = (leaves[0], (c, *extra[leaves[0]]))
        by_center[part[0]] = part
    partition = StarPartition(tuple(filter(None, by_center)), t.n - len(parts))
    if partition.weight != w_red + len(removed):
        raise ConstructionError("re-expanded partition weight differs from S(T)")
    if removed:
        return TreeAnalysis(t.n, removed, w_red, partition, DdmResult(INFINITE), False)
    cert = certified(t, _label_partition(t, partition, walk))
    if cert.size() != partition.weight:
        raise ConstructionError("tree certificate size differs from S(T)")
    hat = t.n == 2 or 2 * list(map(t.degree, range(t.n))).count(1) == t.n
    return TreeAnalysis(t.n, (), w_red, partition, finite_result(cert), hat)


# ---------------------------------------------------------------------------
# hat graphs

def hat_graph(h: Graph) -> Graph:
    """Attach a pendant leaf n+i to every vertex i."""
    edges = list(h.edges) + [(i, h.n + i) for i in range(h.n)]
    return Graph(2 * h.n, edges)
