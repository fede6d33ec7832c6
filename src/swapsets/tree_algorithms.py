"""Tree machinery: star partitionings, weak reduction, and tree swap numbers.

The minimum weight S(T) of a simple star partitioning of a non-trivial tree
equals the tree's swap number whenever the tree is weak (no vertex has two or
more leaf neighbors).  One bottom-up pass of a three-state DP finds a minimum
K1/K2 partition, and its top-down traceback labels it as a swap certificate:
each K1 center hands the labels it still lacks to the K2 parts of its
children, and every other K2 part puts its lower endpoint in D.  The DP and
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

# Per-vertex states of the K1/K2-only partition DP:
#   P - in a K2 part with its parent (the pair's weight charged at the parent)
#   C - in a K2 part with one child
#   K - a K1 part; it needs neighbors in two K2 parts, so two C children
#       under a K parent or at the root, and one under a P or C parent
# A leaf's only feasible state is P, so _INF costs alone force a stem into
# C with its one leaf and leave a stem with two leaves no feasible state.

def _weak_partition_dp(t: Graph, walk) -> tuple[int, list[tuple[int, tuple[int, ...]]],
                                                list[tuple[int, int]]]:
    """Minimum-weight K1/K2 simple star partitioning of a weak non-trivial
    tree, over its walk (parent, order), and the swap certificate it
    converts into.  The tree is the one the walk reaches, so an order
    without some of t's leaves solves t with those leaves stripped; a
    strong tree has no feasible state at its root.

    Returns (weight, parts, matching).  Weight counts the K2 parts.  Ties
    break toward pairing with the parent, then toward the lower-index child
    partner.  Costs live in flat per-vertex lists, _INF where a state is
    infeasible: cost_k is K with two C children, and best[v] is the least
    of C and K with at least one.  The traceback re-derives each child's
    state from them with the tie rules of the forward pass.

    The traceback also labels the certificate, whose matching lists each K2
    part's (D, D') pair.  A K center needs a neighbor of each label; its
    parent's part, if a K2, is labeled before it is reached, and it hands
    the labels it lacks, D before D', to its C children in ascending order.
    Every other K2 part puts its lower endpoint in D.
    """
    n = t.n
    parent, order = walk
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    root = order[0]

    cost_p, cost_c, cost_k, best = ([_INF] * n for _ in range(4))
    partner = [-1] * n

    for v in reversed(order):
        cs = children[v]
        if not cs:  # a leaf
            cost_p[v] = 0
            continue
        base = sum(map(best.__getitem__, cs))
        # state P: pair with parent; children settle on C or K
        if parent[v] != -1 and base < _INF:
            cost_p[v] = base
        # state C: pair with one child in state P, the first of least cost
        delta, c_star = _INF, -1
        for c in cs:
            d = cost_p[c] - best[c]
            if d < delta:
                delta, c_star = d, c
        if base + delta < _INF:
            cost_c[v] = 1 + base + delta
            partner[v] = c_star
        # state K: children settle on C (counts) or K.  K short of the C
        # children it needs is left infeasible: upgrading a K child c to C costs
        # cost_c[c] >= 1 + base_c (as cost_c[c] > cost_k[c] >= base_c),
        # while pairing v with c in state P costs no more, so state C is at
        # least as cheap and wins the tie.
        total = have = 0
        for c in cs:
            c_cost, k_cost = cost_c[c], cost_k[c]
            if c_cost <= k_cost:
                total += c_cost
                have += 1
            else:
                total += k_cost
        if have >= 2:
            cost_k[v] = total
        best[v] = min(cost_c[v], total if have else _INF)

    weight = min(cost_c[root], cost_k[root])
    if weight >= _INF:
        raise ConstructionError("no simple star partitioning found on a weak tree")

    # parents precede children in the walk, so each vertex's state, and the
    # label of its parent's K2 part, are known by the time it is reached
    state = ["P"] * n
    state[root] = "C" if cost_c[root] == weight else "K"
    in_d: list[bool | None] = [None] * n  # None until the vertex's part is labeled
    parts: list[tuple[int, tuple[int, ...]]] = []
    matching: list[tuple[int, int]] = []
    for v in order:
        cs = children[v]
        if state[v] == "K":
            parts.append((v, ()))
            p = parent[v]
            lacking = [True, False] if p == -1 or state[p] == "K" else [not in_d[p]]
            for c in cs:
                if cost_c[c] <= cost_k[c]:
                    state[c] = "C"
                    if lacking:
                        in_d[c] = lacking.pop(0)
                else:
                    state[c] = "K"
            continue
        for c in cs:
            state[c] = "C" if cost_c[c] == best[c] else "K"
        if state[v] == "C":
            w = partner[v]
            state[w] = "P"
            if in_d[v] is None:
                in_d[v] = v < w
            in_d[w] = not in_d[v]
            matching.append((v, w) if in_d[v] else (w, v))
            parts.append((v, (w,)) if v < w else (w, (v,)))
    return weight, parts, matching


def s_weight(t: Graph) -> tuple[int, StarPartition]:
    """Exact minimum weight of a simple star partitioning, with a witness:
    the partition analyse_tree computes."""
    partition = analyse_tree(t).partition
    return partition.weight, partition


def dd_m_tree(t: Graph) -> DdmResult:
    """Swap number of a non-trivial tree: infinite iff the tree is strong,
    otherwise S(t) with a certificate built from a minimum partition."""
    removed, walk = _reduce(t)
    # a strong stem has two leaves, so a strong tree is non-trivial
    return DdmResult(INFINITE) if removed else _analysis(t, removed, walk).result


class TreeAnalysis(_Frozen):
    """Everything `swapsets tree` reports about a non-trivial tree, from one
    walk and one partition DP: the walk that checks the tree also roots it
    for the DP, which solves the weak reduction in place and labels the
    certificate."""

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
    w_red, parts, matching = _weak_partition_dp(t, (parent, [v for v in order if v not in drop]))
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
    cert = certified(t, SwapCertificate.build([a for a, _ in matching],
                                              [b for _, b in matching], matching))
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
