"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities from first principles using only the
Graph accessors, so disagreements point at the library, not the oracle.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations, permutations

from swapsets import (
    ContractError,
    Graph,
    GraphParseError,
    StarPartition,
    SwapCertificate,
    format_graph,
    is_tree,
)
from swapsets.graph_core import MAX_GRAPH_N, _checked, _mask_members
from swapsets.tree_algorithms import _INF, _rooted


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def mask_of(vertices) -> int:
    """Bitmask of a collection of distinct vertices."""
    return sum(1 << v for v in vertices)


def graph_oracle(n: int, edges):
    """(edges, adjacency) of Graph(n, edges) as the constructor first built
    them, one edge at a time: each edge is checked for range, then for a
    loop, then for a repeat, and the first bad one raises."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
    adj = [[] for _ in range(n)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(sorted(seen)), tuple(tuple(sorted(a)) for a in adj)


def parse_graph_oracle(text: str):
    """(n, edges, adjacency) of parse_graph(text) as the line-by-line parser
    first read it, or the GraphParseError it raised."""
    header = None
    edges = []
    expected = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphParseError(line_no, f"expected header 'n m', got {raw!r}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphParseError(line_no, f"non-integer header field in {raw!r}")
            if n < 0 or m < 0:
                raise GraphParseError(line_no, "header counts must be nonnegative")
            if n > MAX_GRAPH_N:
                raise GraphParseError(
                    line_no, f"header asks for {n} vertices, above the cap of {MAX_GRAPH_N}")
            header = (n, m)
            expected = m
            continue
        if len(fields) != 2:
            raise GraphParseError(line_no, f"expected edge 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(line_no, f"non-integer endpoint in {raw!r}")
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"endpoint out of range 0..{n - 1} in {raw!r}")
        if u == v:
            raise GraphParseError(line_no, f"loop at vertex {u}")
        edges.append((u, v))
    if header is None:
        raise GraphParseError(1, "empty input, expected header 'n m'")
    if len(edges) != expected:
        raise GraphParseError(1, f"header promised {expected} edges, found {len(edges)}")
    try:
        return (header[0], *graph_oracle(header[0], edges))
    except ValueError as exc:
        raise GraphParseError(1, str(exc))


def brute_dominating(g: Graph, s) -> bool:
    left = set(range(g.n))
    for v in s:
        left.discard(v)
        for u in g.neighbors(v):
            left.discard(u)
    return not left


def brute_has_perfect_matching(g: Graph, a, b) -> bool:
    """All bijections, edges checked one by one; fine for |a| <= 6."""
    a = list(a)
    for image in permutations(b):
        if all(g.has_edge(u, v) for u, v in zip(a, image)):
            return True
    return False


def dominating_sets_brute(g: Graph, k: int, allowed_mask: int) -> list[int]:
    """Bitmasks of the dominating k-subsets of the allowed vertices, in
    lexicographic order of their sorted vertex tuples."""
    allowed = [v for v in range(g.n) if allowed_mask >> v & 1]
    if k < 0:
        return []
    return [sum(1 << v for v in cand) for cand in combinations(allowed, k)
            if brute_dominating(g, cand)]


def matching_between_oracle(g: Graph, a, b):
    """`graph_core.matching_between` as it was before the matchings shared
    one bitmask routine: augmenting paths over sets and dicts.  Vertices of
    a are range-checked too, before those of b."""
    a_list = sorted(set(a))
    b_list = sorted(set(b))
    if len(a_list) != len(b_list):
        raise ContractError("matching endpoints must have equal size")
    if set(a_list) & set(b_list):
        raise ContractError("matching endpoints must be disjoint")
    _checked(a_list, g.n)
    b_set = _checked(b_list, g.n)
    adj = {u: [v for v in g.neighbors(u) if v in b_set] for u in a_list}
    match_of_b: dict[int, int] = {}

    def augment(root: int) -> bool:
        visited = set()
        stack = [(root, iter(adj[root]))]
        via: list[int] = []
        while stack:
            u, partners = stack[-1]
            for v in partners:
                if v in visited:
                    continue
                visited.add(v)
                if v in match_of_b:
                    via.append(v)
                    w = match_of_b[v]
                    stack.append((w, iter(adj[w])))
                    break
                match_of_b[v] = u
                for (x, _), y in zip(reversed(stack[:-1]), reversed(via)):
                    match_of_b[y] = x
                return True
            else:
                stack.pop()
                if via:
                    via.pop()
        return False

    for u in a_list:
        if not augment(u):
            return None
    match_of_a = {u: v for v, u in match_of_b.items()}
    return tuple((u, match_of_a[u]) for u in a_list)


def lex_least_matching_oracle(g: Graph, a, b):
    """`graph_core.lex_least_matching` as it was before the matchings
    shared one bitmask routine: greedy, with a `matching_between_oracle`
    probe for each candidate partner."""
    a_list = sorted(set(a))
    b_set = set(b)
    chosen: list[tuple[int, int]] = []
    for i, u in enumerate(a_list):
        placed = False
        for v in sorted(b_set):
            if not g.has_edge(u, v):
                continue
            rest = (matching_between_oracle(g, a_list[i + 1:], b_set - {v})
                    if len(a_list) - i - 1 else ())
            if rest is not None:
                chosen.append((u, v))
                b_set.remove(v)
                placed = True
                break
        if not placed:
            return None
    return tuple(chosen)


def brute_ddm(g: Graph):
    """Swap number by unfiltered enumeration; None encodes infinity."""
    for k in range(1, g.n // 2 + 1):
        for d in combinations(range(g.n), k):
            if not brute_dominating(g, d):
                continue
            rest = [v for v in range(g.n) if v not in d]
            for dp in combinations(rest, k):
                if brute_dominating(g, dp) and brute_has_perfect_matching(g, d, dp):
                    return k
    return None


def brute_alpha(g: Graph) -> int:
    best = 0
    for k in range(g.n, 0, -1):
        for cand in combinations(range(g.n), k):
            if all(not g.has_edge(u, v) for u, v in combinations(cand, 2)):
                return k
    return best


def brute_gamma(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for cand in combinations(range(g.n), k):
            if brute_dominating(g, cand):
                return k
    raise AssertionError("unreachable for nonempty graphs")


def has_dominating_set_oracle(g: Graph, k: int) -> bool:
    """Is there a dominating set of size at most k?  The branch and bound
    `graph_core.has_dominating_set` ran before it became a query on
    `dominating_sets_lex`: branch on the closed neighborhood of the least
    undominated vertex, pruned by the largest closed neighborhood."""
    if k < 0:
        return False
    max_cover = max((m.bit_count() for m in g._closed), default=1)

    def rec(undominated: int, slots: int) -> bool:
        if not undominated:
            return True
        if slots * max_cover < undominated.bit_count():
            return False
        u = (undominated & -undominated).bit_length() - 1
        for x in _mask_members(g.closed_mask(u)):
            if rec(undominated & ~g.closed_mask(x), slots - 1):
                return True
        return False

    return rec(g.full_mask, k)


def _is_star_part(t: Graph, part: tuple[int, ...]) -> bool:
    if len(part) <= 1:
        return True
    return any(all(u == c or t.has_edge(c, u) for u in part) for c in part)


def _may_become_star(t: Graph, part: tuple[int, ...]) -> bool:
    """Star already, or independent with a common neighbor still to come.
    Vertices join parts in index order, so a future center exceeds max(part)."""
    if _is_star_part(t, part):
        return True
    if any(t.has_edge(u, v) for u, v in combinations(part, 2)):
        return False
    cands = set(t.neighbors(part[0]))
    for u in part[1:]:
        cands &= set(t.neighbors(u))
    return any(w > max(part) for w in cands)


def star_partition_weight_oracle(t: Graph):
    """Minimum weight over all simple star partitionings, by exhaustive
    enumeration: every part induces a star, every vertex with exactly one
    leaf neighbor sits in a K2 with that leaf, and every K1 part touches at
    least two larger parts.  None if no valid partitioning exists."""
    weak_stems = {}
    for v in range(t.n):
        leaf_nbrs = [u for u in t.neighbors(v) if t.degree(u) == 1]
        if len(leaf_nbrs) == 1:
            weak_stems[v] = leaf_nbrs[0]

    best = [None]

    def finish(parts: list[tuple[int, ...]]) -> None:
        if not all(_is_star_part(t, part) for part in parts):
            return
        where = {}
        for i, part in enumerate(parts):
            for v in part:
                where[v] = i
        for stem, leaf in weak_stems.items():
            i = where[stem]
            if len(parts[i]) != 2 or where[leaf] != i:
                return
        for i, part in enumerate(parts):
            if len(part) > 1:
                continue
            nbr_parts = {where[u] for u in t.neighbors(part[0])}
            if sum(1 for j in nbr_parts if len(parts[j]) >= 2) < 2:
                return
        weight = t.n - len(parts)
        if best[0] is None or weight < best[0]:
            best[0] = weight

    def extend(v: int, parts: list[tuple[int, ...]]) -> None:
        if v == t.n:
            finish(parts)
            return
        for i, part in enumerate(parts):
            grown = part + (v,)
            if _may_become_star(t, grown):
                parts[i] = grown
                extend(v + 1, parts)
                parts[i] = part
        parts.append((v,))
        extend(v + 1, parts)
        parts.pop()

    extend(0, [])
    return best[0]


def validate_star_partition(t: Graph, p) -> tuple[str, ...]:
    """All violations of the simple-star-partitioning conditions, empty if valid.

    Conditions: parts partition V(t) and induce stars around their stated
    centers; every vertex adjacent to exactly one leaf of t lies in a K2 part
    with that leaf; every K1 part has at least two neighbor parts of size 2
    or more.
    """
    problems = []
    seen: dict[int, int] = {}
    for i, (c, leaves) in enumerate(p.parts):
        for v in (c, *leaves):
            if not 0 <= v < t.n:
                problems.append(f"vertex-out-of-range:{v}")
            elif v in seen:
                problems.append(f"vertex-in-two-parts:{v}")
            else:
                seen[v] = i
        for v in leaves:
            if not t.has_edge(c, v):
                problems.append(f"leaf-not-adjacent-to-center:{v}-{c}")
        if len(leaves) < 2:
            continue
        # adjacent leaves, in the order of a scan over all leaf pairs
        positions: dict[int, list[int]] = {}
        for b_idx, v in enumerate(leaves):
            positions.setdefault(v, []).append(b_idx)
        for a_idx, v in enumerate(leaves):
            if 0 <= v < t.n:
                for b_idx in sorted(b for u in t.neighbors(v)
                                    for b in positions.get(u, ()) if b > a_idx):
                    problems.append(f"part-not-a-star:{v}-{leaves[b_idx]}")
    if len(seen) != t.n:
        missing = sorted(set(range(t.n)) - set(seen))
        if missing:
            problems.append(f"vertex-unassigned:{missing[0]}")
    if problems:
        return tuple(problems)
    size = [1 + len(ls) for _, ls in p.parts]
    for v in range(t.n):
        leaf_nbrs = [u for u in t.neighbors(v) if t.degree(u) == 1]
        if len(leaf_nbrs) == 1:
            i = seen[v]
            if size[i] != 2 or seen[leaf_nbrs[0]] != i:
                problems.append(f"weak-stem-not-paired-with-leaf:{v}")
    for i, (c, leaves) in enumerate(p.parts):
        if leaves:
            continue
        nbr_parts = {seen[u] for u in t.neighbors(c)} - {i}
        if sum(1 for j in nbr_parts if size[j] >= 2) < 2:
            problems.append(f"k1-part-undersupported:{c}")
    if p.weight != t.n - len(p.parts):
        problems.append(f"weight-mismatch:{p.weight}!={t.n - len(p.parts)}")
    return tuple(problems)


def part_not_a_star_oracle(t: Graph, p) -> list[str]:
    """The part-not-a-star problems of validate_star_partition, found by
    testing every pair of leaves of each part for adjacency."""
    problems = []
    for _, leaves in p.parts:
        for a_idx in range(len(leaves)):
            for b_idx in range(a_idx + 1, len(leaves)):
                if t.has_edge(leaves[a_idx], leaves[b_idx]):
                    problems.append(f"part-not-a-star:{leaves[a_idx]}-{leaves[b_idx]}")
    return problems


def star_partition_order2_oracle(t: Graph):
    """The quadratic greedy that star_partition_order2 speeds up: rescan every
    remaining vertex for the deepest stem whose remaining children are all
    leaves (lowest index among equals), cut it off with them, and let a lone
    root join a neighboring part.  Returns the StarPartition."""
    from swapsets import StarPartition

    parent, depth, order = [-1] * t.n, [0] * t.n, [0]
    seen = {0}
    for v in order:
        for u in t.neighbors(v):
            if u not in seen:
                seen.add(u)
                parent[u], depth[u] = v, depth[v] + 1
                order.append(u)
    remaining = set(range(t.n))
    live_children = {v: {u for u in range(t.n) if parent[u] == v} for v in range(t.n)}
    parts = []
    while remaining:
        if len(remaining) == 1:
            (r,) = remaining
            for idx, (c, leaves) in enumerate(parts):
                if t.has_edge(r, c):
                    leaves.append(r)
                    break
                if len(leaves) == 1 and t.has_edge(r, leaves[0]):
                    parts[idx] = (leaves[0], [c, r])
                    break
            else:
                raise AssertionError("lone root could not join any star part")
            break
        stems = [v for v in remaining
                 if live_children[v] and all(not live_children[c] for c in live_children[v])]
        v = max(stems, key=lambda x: (depth[x], -x))
        members = sorted(live_children[v])
        parts.append((v, members))
        for x in [v, *members]:
            remaining.discard(x)
        if parent[v] != -1:
            live_children[parent[v]].discard(v)
    return StarPartition.build(parts)


def full_board_problems(m: int, n: int, black: set, white: set) -> set:
    """Every problem cell of a token board, found by scanning the whole board:
    blocked or colliding moves, and cells undominated before or after."""
    d = black | white
    problems = set()
    targets = {}
    for (i, j) in sorted(d):
        t = (i + 1, j) if (i, j) in black else (i - 1, j)
        if not (1 <= t[0] <= m and 1 <= t[1] <= n):
            problems.add((i, j))
            continue
        if t in d:
            problems.update({(i, j), t})
        if t in targets:
            problems.update({(i, j), targets[t]})
        else:
            targets[t] = (i, j)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            closed = ((i, j), (i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
            if not any(c in d for c in closed):
                problems.add((i, j))
            if not any(c in targets for c in closed):
                problems.add((i, j))
    return problems


def repair_corners_full_recheck(m: int, n: int, black: set, white: set, size_cap: int):
    """The corner repair with a whole-board re-check of every candidate edit:
    the first candidate in the library's order that clears the corner's
    problems without adding any elsewhere is kept."""
    from itertools import combinations

    from swapsets.grid_constructions import _apply_ops, _corner_ops

    problems = full_board_problems(m, n, black, white)

    def near(cell, corner, radius):
        return max(abs(cell[0] - corner[0]), abs(cell[1] - corner[1])) <= radius

    for corner in ((m, 1), (1, n), (m, n), (1, 1)):
        if not any(near(p, corner, 4) for p in problems):
            continue
        ci, cj = corner
        box = sorted((i, j)
                     for i in range(max(1, ci - 2), min(m, ci + 2) + 1)
                     for j in range(max(1, cj - 2), min(n, cj + 2) + 1))
        singles = _corner_ops(box, black, white)
        candidates = [[op] for op in singles]
        candidates += [[a, b] for a, b in combinations(singles, 2) if a[1] != b[1]]
        for cand in candidates:
            nb, nw = _apply_ops(cand, black, white)
            if len(nb) + len(nw) > size_cap:
                continue
            remaining = full_board_problems(m, n, nb, nw)
            if any(near(p, corner, 4) for p in remaining) or not remaining <= problems:
                continue
            black, white, problems = nb, nw, remaining
            break
        else:
            raise AssertionError(f"no local repair found at corner {corner}")
    if problems:
        raise AssertionError(f"unrepaired cells remain: {sorted(problems)}")
    return black, white


def canonical_form_oracle(g: Graph) -> int:
    """The canonical encoding computed as the census first computed it:
    refinement on tuples until a pass changes nothing, the first
    non-singleton cell split on each vertex (once for an interchangeable
    cell), and the least upper-triangle encoding over the leaves."""

    def refine(colors: tuple) -> tuple:
        while True:
            signatures = [(colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
                          for v in range(g.n)]
            palette = {s: i for i, s in enumerate(sorted(set(signatures)))}
            new = tuple(palette[s] for s in signatures)
            if new == colors:
                return new
            colors = new

    def encode(perm: list[int]) -> int:
        pos = {v: i for i, v in enumerate(perm)}
        bits = 0
        for u, v in g.edges:
            a, b = sorted((pos[u], pos[v]))
            bits |= 1 << (a * g.n + b)
        return bits

    def homogeneous(cell: list[int]) -> bool:
        inside = set(cell)
        outside = {frozenset(u for u in g.neighbors(v) if u not in inside) for v in cell}
        deg_in = {sum(1 for u in g.neighbors(v) if u in inside) for v in cell}
        return len(outside) == 1 and deg_in in ({0}, {len(cell) - 1})

    best = []

    def descend(colors: tuple) -> None:
        colors = refine(colors)
        buckets: dict = {}
        for v, c in enumerate(colors):
            buckets.setdefault(c, []).append(v)
        cells = [buckets[c] for c in sorted(buckets)]
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            best.append(encode([v for cell in cells for v in cell]))
            return
        for v in (target[:1] if homogeneous(target) else target):
            descend(tuple(c + (g.n * g.n if u == v else 0) for u, c in enumerate(colors)))

    descend((0,) * g.n)
    return min(best)


def full_extension_children(parent: Graph):
    """Every child of parent: a new last vertex joined to each nonempty
    vertex mask, masks ascending."""
    n = parent.n + 1
    for mask in range(1, 1 << parent.n):
        yield Graph(n, [*parent.edges, *((u, n - 1) for u in range(parent.n) if mask >> u & 1)])


def census_oracle(max_n: int) -> list[tuple[Graph, str]]:
    """(graph, graph id) per class of connected graphs on 1..max_n vertices,
    by the unpruned generator: each class of the previous order extended by
    every mask, the first child of each code kept, codes ascending."""
    level = [Graph(1, [])]
    records = [(level[0], f"1-{canonical_form_oracle(level[0]):x}")]
    for n in range(2, max_n + 1):
        out: dict[int, Graph] = {}
        for parent in level:
            for child in full_extension_children(parent):
                out.setdefault(canonical_form_oracle(child), child)
        level = [out[code] for code in sorted(out)]
        records.extend((out[code], f"{n}-{code:x}") for code in sorted(out))
    return records


def gamma_sweep_oracle(rows: int):
    """Domination numbers of the rows x 1, rows x 2, ... grids by a sweep
    that steps a whole column at a time: a state is the column's in-set mask
    and the mask of its cells still undominated, and the next column's set
    is any superset of that mask."""
    full = (1 << rows) - 1
    vert = [((s << 1) | (s >> 1)) & full for s in range(1 << rows)]
    supersets = [[s for s in range(1 << rows) if s & u == u] for u in range(1 << rows)]
    counts = [bin(s).count("1") for s in range(1 << rows)]
    cur = {}
    for s in range(1 << rows):
        key = (s, full & ~(s | vert[s]))
        cur[key] = min(counts[s], cur.get(key, counts[s]))
    while True:
        yield min(cost for (_, undom), cost in cur.items() if undom == 0)
        nxt = {}
        for (prev_in, undom), cost in cur.items():
            for s in supersets[undom]:
                key = (s, full & ~(s | vert[s] | prev_in))
                c = cost + counts[s]
                if c < nxt.get(key, 1 << 30):
                    nxt[key] = c
        cur = nxt


def weak_partition_dp_oracle(t: Graph):
    """The K1/K2 partition DP of `tree_algorithms._weak_partition_dp` as it
    was first written: a cost dict and a trace dict per vertex, and an
    assignment dict of the children's states for every state.  Returns the
    same (weight, parts) as the DP's first two outputs, ties broken the same
    way."""
    n = t.n
    parent, order = _rooted(t)
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    forced: dict[int, tuple] = {}
    for v in range(n):
        leaves = [u for u in t.neighbors(v) if t.degree(u) == 1]
        if len(leaves) == 1:
            leaf = leaves[0]
            forced[v] = ("C", leaf) if parent[leaf] == v else ("P",)
        elif len(leaves) >= 2:
            raise ContractError("partition DP requires a weak tree")

    dp: list[dict[str, int]] = [dict() for _ in range(n)]
    trace: list[dict[str, tuple]] = [dict() for _ in range(n)]

    def child_cost(c: int, states: tuple[str, ...]) -> tuple[int, str | None]:
        best_cost, best_state = _INF, None
        for s in states:
            cost = dp[c].get(s, _INF)
            if cost < best_cost:
                best_cost, best_state = cost, s
        return best_cost, best_state

    for v in reversed(order):
        cs = children[v]
        f = forced.get(v)
        # state P: pair with parent; children settle on C/K0/K1
        if parent[v] != -1 and (f is None or f == ("P",)):
            total = 0
            assign = {}
            for c in cs:
                cost, st = child_cost(c, ("C", "K0", "K1"))
                total += cost
                assign[c] = st
            if total < _INF:
                dp[v]["P"] = total
                trace[v]["P"] = (None, assign)
        # state C: pair with one child c_star in state P
        if f is None or f[0] == "C":
            partner_choices = [f[1]] if f is not None else cs
            base = 0
            base_assign = {}
            for c in cs:
                cost, st = child_cost(c, ("C", "K0", "K1"))
                base += cost
                base_assign[c] = st
            best = (_INF, None)
            for c_star in partner_choices:
                p_cost = dp[c_star].get("P", _INF)
                if p_cost >= _INF:
                    continue
                other, _ = child_cost(c_star, ("C", "K0", "K1"))
                total = 1 + p_cost + (base - other if base < _INF else _INF)
                if base >= _INF:
                    # some non-partner child infeasible unless it was c_star itself
                    rest = 0
                    ok = True
                    for c in cs:
                        if c == c_star:
                            continue
                        cost, _st = child_cost(c, ("C", "K0", "K1"))
                        if cost >= _INF:
                            ok = False
                            break
                        rest += cost
                    if not ok:
                        continue
                    total = 1 + p_cost + rest
                if total < best[0]:
                    assign = dict(base_assign)
                    assign[c_star] = "P"
                    best = (total, (c_star, assign))
            if best[0] < _INF:
                dp[v]["C"] = best[0]
                trace[v]["C"] = best[1]
        # states K0/K1: v is a K1 part; children settle on C (counts) or K0
        if f is None:
            options = []
            feasible = True
            for c in cs:
                c_cost = dp[c].get("C", _INF)
                k_cost = dp[c].get("K0", _INF)
                if c_cost >= _INF and k_cost >= _INF:
                    feasible = False
                    break
                options.append((c, c_cost, k_cost))
            if feasible:
                for state, need in (("K1", 1), ("K0", 2)):
                    total = 0
                    assign = {}
                    have = 0
                    upgrades = []
                    ok = True
                    for c, c_cost, k_cost in options:
                        if c_cost <= k_cost:
                            total += c_cost
                            assign[c] = "C"
                            have += 1
                        else:
                            total += k_cost
                            assign[c] = "K0"
                            if c_cost < _INF:
                                upgrades.append((c_cost - k_cost, c))
                    if have < need:
                        upgrades.sort()
                        for delta, c in upgrades[: need - have]:
                            total += delta
                            assign[c] = "C"
                            have += 1
                        if have < need:
                            ok = False
                    if ok and total < _INF:
                        dp[v][state] = total
                        trace[v][state] = (None, assign)

    root = order[0]
    root_states = [s for s in ("C", "K0") if s in dp[root]]
    if not root_states:
        raise AssertionError("no simple star partitioning found on a weak tree")
    best_state = min(root_states, key=lambda s: (dp[root][s], s != "C"))

    # parents precede children in the walk, so each vertex's state is known
    # by the time it is reached
    state_of = {root: best_state}
    parts: list[tuple[int, tuple[int, ...]]] = []
    for v in order:
        state = state_of[v]
        partner, assign = trace[v][state]
        if state == "C":
            a, b = (v, partner) if v < partner else (partner, v)
            parts.append((a, (b,)))
        elif state in ("K0", "K1"):
            parts.append((v, ()))
        state_of.update(assign)
    return dp[root][best_state], parts


def label_partition_oracle(t: Graph, p: StarPartition, walk) -> SwapCertificate:
    """The certificate labelling of `tree_algorithms` as it was written
    before the DP's traceback took it over, a second pass over the finished
    partition.

    Convert a K1/K2 simple star partitioning of a weak tree into a swap
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


def _ahu_key(t: Graph, root: int) -> str:
    """Rooted canonical encoding: each vertex is "(" + its children's
    encodings, sorted + ")", built bottom-up along a walk from root."""
    parent = [-1] * t.n
    order = [root]
    for v in order:
        for u in t.neighbors(v):
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    subs: list[list[str]] = [[] for _ in range(t.n)]
    for v in reversed(order[1:]):
        subs[parent[v]].append("(" + "".join(sorted(subs[v])) + ")")
    return "(" + "".join(sorted(subs[root])) + ")"


def tree_canonical_key(t: Graph) -> str:
    """Isomorphism-invariant string: rooted canonical encoding minimized over
    the tree's one or two centers."""
    if not is_tree(t):
        raise ContractError("expected a tree")
    if t.n == 1:
        return "()"
    degree = [t.degree(v) for v in range(t.n)]
    alive = set(range(t.n))
    deg = degree[:]
    layer = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
        for v in layer:
            for u in t.neighbors(v):
                if u in alive:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return min(_ahu_key(t, c) for c in alive)


def prufer_tree(n: int, rng) -> Graph:
    """The labelled tree on n >= 2 vertices decoded from a Prüfer sequence
    drawn from rng."""
    return prufer_decode(n, [rng.randrange(n) for _ in range(n - 2)])


def prufer_decode(n: int, seq) -> Graph:
    """The labelled tree on n >= 2 vertices with Prüfer sequence seq, of
    length n - 2, decoded smallest leaf first."""
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
    return Graph(n, edges)


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic trees on n >= 2 vertices, deterministically ordered.

    Generated by adding a pendant leaf to every vertex of every (n-1)-tree
    and deduplicating by canonical key.
    """
    if n < 2:
        raise ContractError("enumeration covers non-trivial trees only")
    if n == 2:
        return (Graph(2, [(0, 1)]),)
    found: dict[str, Graph] = {}
    for t in enumerate_trees(n - 1):
        for v in range(t.n):
            bigger = Graph(t.n + 1, list(t.edges) + [(v, t.n)])
            key = tree_canonical_key(bigger)
            if key not in found:
                found[key] = bigger
    return tuple(found[k] for k in sorted(found))


def scan_alpha3_oracle(max_n: int) -> tuple[dict, int]:
    """`cli._scan_alpha3` as it was before the alpha-3 scans solved only
    what the matched-partner construction misses: the exact swap number of
    every alpha-3 record, then the stage of each."""
    from swapsets.small_alpha import CensusRecord, _matched_swap, census

    stages: dict = {}
    no_swap = []
    records = census(max_n)
    CensusRecord.fill(records, ("alpha",))
    records = [rec for rec in records if rec.n >= 6 and rec.alpha == 3]
    CensusRecord.fill(records, ("ddm",))
    for rec in records:
        if _matched_swap(rec.graph, rec.alpha) is not None:
            stage = "matched-dominating"
        elif rec.ddm != "infinity":
            stage = "fallback"
        else:
            no_swap.append({"graph_id": rec.graph_id, "graph": format_graph(rec.graph)})
            continue
        stages[stage] = stages.get(stage, 0) + 1
    bound_records, bound_counterexamples = alpha3_bound_oracle(max_n)
    out = {
        "scan": "alpha3", "max_n": max_n, "checked": len(records),
        "stages": stages,
        "existence_counterexamples": no_swap,
        "bound_records": len(bound_records),
        "bound_counterexamples": bound_counterexamples,
    }
    return out, (1 if no_swap or bound_counterexamples else 0)


def alpha3_bound_oracle(scope_n: int) -> tuple[list, list[dict]]:
    """The records and counterexamples of `small_alpha.alpha3_bound_check`
    as it was before it solved only what the construction misses: every
    alpha-3 record solved exactly."""
    from swapsets.small_alpha import CensusRecord, census

    records = census(scope_n)
    CensusRecord.fill(records, ("alpha",))
    records = [r for r in records if r.alpha == 3]
    CensusRecord.fill(records, ("ddm",))
    records = [r for r in records if r.ddm != "infinity"]
    return records, [{
        "graph": format_graph(r.graph),
        "claim": "swap number exceeds independence number 3",
        "ddm": r.ddm,
    } for r in records if r.ddm > 3]
