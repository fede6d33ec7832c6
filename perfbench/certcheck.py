"""Independent checks of swapsets output.

Nothing here imports swapsets: a certificate is judged only against the
edge list the benchmark generated itself, so a defect in the library's own
verifier cannot hide a wrong answer.
"""

from __future__ import annotations

import itertools


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Read the "n m" header and m "u v" lines of an edge-list file."""
    lines = [line.split() for line in text.splitlines()
             if line.strip() and not line.startswith("#")]
    n, m = (int(x) for x in lines[0])
    edges = [(int(u), int(v)) for u, v in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"header promised {m} edges, found {len(edges)}")
    return n, edges


def edge_set(edges) -> set[tuple[int, int]]:
    return {(u, v) if u < v else (v, u) for u, v in edges}


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def certificate_problems(n: int, edges, cert: dict) -> list[str]:
    """Reasons the printed certificate is not a swap pair of the graph.

    Both sides must dominate, be disjoint and of equal size, and the
    matching must pair every D vertex with a distinct D' vertex along an
    edge of the input.  An empty list means the certificate holds.
    """
    d, dp = set(cert["d"]), set(cert["d_prime"])
    pairs = [tuple(p) for p in cert["matching"]]
    problems = []
    if not d or len(d) != len(cert["d"]) or len(dp) != len(cert["d_prime"]):
        problems.append("empty or repeated vertices")
    if any(not 0 <= v < n for v in d | dp):
        return problems + ["vertex out of range"]
    if d & dp:
        problems.append("sides overlap")
    if len(d) != len(dp):
        problems.append("sides differ in size")
    if sorted(u for u, _ in pairs) != sorted(d) or sorted(v for _, v in pairs) != sorted(dp):
        problems.append("matching is not a bijection from D to D'")
    es = edge_set(edges)
    if any(((u, v) if u < v else (v, u)) not in es for u, v in pairs):
        problems.append("matched pair is not an edge")
    adj = adjacency(n, edges)
    for name, side in (("D", d), ("D'", dp)):
        if any(v not in side and not adj[v] & side for v in range(n)):
            problems.append(f"{name} does not dominate")
    return problems


def strong_stem(n: int, edges) -> int | None:
    """A vertex with two or more pendant leaves, which rules out any swap
    pair: both leaves need a token on them or on the stem on both sides."""
    adj = adjacency(n, edges)
    for v in range(n):
        if sum(1 for u in adj[v] if len(adj[u]) == 1) >= 2:
            return v
    return None


def is_connected(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == n


def independence_number(n: int, edges) -> int:
    """Brute force; only for the graphs of at most 8 vertices the scans list."""
    es = edge_set(edges)
    for k in range(n, 0, -1):
        for s in itertools.combinations(range(n), k):
            if not any(p in es for p in itertools.combinations(s, 2)):
                return k
    return 0


def grid_edges(m: int, n: int) -> set[tuple[int, int]]:
    """m columns by n rows; cell (i, j) is vertex i * n + j."""
    out = set()
    for i in range(m):
        for j in range(n):
            v = i * n + j
            if j + 1 < n:
                out.add((v, v + 1))
            if i + 1 < m:
                out.add((v, v + n))
    return out


def product_edges(g_n: int, g_edges, h_n: int, h_edges) -> set[tuple[int, int]]:
    """Cartesian product; vertex (a, b) is a * h_n + b."""
    out = set()
    for a in range(g_n):
        out |= edge_set((a * h_n + u, a * h_n + v) for u, v in h_edges)
    for b in range(h_n):
        out |= edge_set((u * h_n + b, v * h_n + b) for u, v in g_edges)
    return out


# Connected graphs on n = 1..8 vertices, up to isomorphism (OEIS A001349).
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def factor_pairs(max_vertices: int) -> int:
    """Unordered pairs of connected factors with 2..8 vertices each and
    |V(g)| * |V(h)| <= max_vertices, as the product scan visits them."""
    sizes = [n for n in range(2, 9) if 2 * n <= max_vertices]
    total = 0
    for i, a in enumerate(sizes):
        for b in sizes[i:]:
            if a * b > max_vertices:
                continue
            ca, cb = CONNECTED_GRAPHS[a], CONNECTED_GRAPHS[b]
            total += ca * (ca + 1) // 2 if a == b else ca * cb
    return total
