"""Core graph machinery: immutable graphs, domination tests, matchings, certificates.

Vertex sets travel through the public API as plain iterables of ints and come
back as frozensets.  Graphs store sorted adjacency tuples, so building one and
checking a certificate on it take O(n + m); the exact searches on small graphs
work on bitmasks (one Python int per vertex set), built on first use.
"""

from __future__ import annotations

import marshal
import os
import re
import sys
from bisect import bisect_left
from itertools import accumulate, chain, count, islice
from operator import eq, itemgetter, lt, or_
from typing import Iterable, Iterator, Sequence


class GraphParseError(ValueError):
    """Malformed edge-list text; message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ContractError(ValueError):
    """An operation was called outside its stated precondition."""


class BudgetError(RuntimeError):
    """An exact solver was asked to run beyond its configured size cap."""


class ConstructionError(RuntimeError):
    """A construction failed its own check: a fault in the program, never
    in its input."""


class _Frozen:
    """Base of the immutable value types.  A subclass names its fields in
    __slots__ and sets them once, in that order, through _set; instances
    compare and hash by their field values, refuse assignment, and print
    as Name(field=value, ...)."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


# up to this many edges the edge-by-edge scan is faster than the column
# checks (break-even near 16 edges for sorted lists under CPython 3.11)
_SCAN_MAX_EDGES = 16


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Adjacency is stored as sorted neighbor tuples.  The per-vertex bitmasks
    of open and closed neighborhoods take n bits each, so they are built only
    when a mask user first asks for them (see __getattr__).  Instances hash
    and compare by (n, edges) so they can key caches.
    """

    __slots__ = ("n", "edges", "full_mask", "_adj", "_open", "_closed", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = list(edges)
        checked = None
        if len(edges) > _SCAN_MAX_EDGES:
            # a strictly ascending list repeats no edge, and the other checks
            # run over whole columns
            try:
                if all(map(lt, edges, islice(edges, 1, None))) \
                        and sum(map(len, edges)) == 2 * len(edges):
                    us = list(map(itemgetter(0), edges))
                    vs = list(map(itemgetter(1), edges))
                    if all(map(lt, us, vs)) and us[0] >= 0 and max(vs) < n:
                        checked = tuple(map(tuple, edges))
            except (TypeError, IndexError):
                pass
        if checked is None:
            # edge by edge, which also names the first bad edge
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
            checked = tuple(sorted(seen))
        self.n = n
        self.edges = checked
        self.full_mask = (1 << n) - 1
        adj = [[] for _ in range(n)]
        # in sorted edge order each vertex meets its lower neighbors first,
        # then its higher ones, both ascending
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))

    def __getattr__(self, name: str):
        # reached only while a slot is unset: build the hash and the masks
        # on first use
        if name == "_hash":
            self._hash = hash((self.n, self.edges))
            return self._hash
        if name not in ("_open", "_closed"):
            raise AttributeError(name)
        open_masks = []
        for nbrs in self._adj:
            m = 0
            for u in nbrs:
                m |= 1 << u
            open_masks.append(m)
        self._open = tuple(open_masks)
        self._closed = tuple(m | (1 << v) for v, m in enumerate(open_masks))
        return getattr(self, name)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def open_mask(self, v: int) -> int:
        """Bitmask of N(v)."""
        return self._open[v]

    def closed_mask(self, v: int) -> int:
        """Bitmask of N[v] = N(v) plus v itself."""
        return self._closed[v]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _mask_members(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members_of(mask: int) -> frozenset[int]:
    return frozenset(_mask_members(mask))


# ---------------------------------------------------------------------------
# parsing and generators

# largest vertex count read from outside the program (a file header or a
# generator token), checked before anything is allocated for the graph
MAX_GRAPH_N = 2_000_000


# the text format_graph writes: lines "u v" of unsigned decimal integers,
# one space apart
_PLAIN_EDGE_LIST = re.compile(r"[0-9]+ [0-9]+(?:\n[0-9]+ [0-9]+)*\n?")


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: a header line "n m" then m lines "u v".

    Blank lines and lines starting with '#' are skipped.  Errors name the
    1-based line number they occurred on.
    """
    n, edges = _parse_plain(text) or _parse_lines(text)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphParseError(1, str(exc))


def _parse_plain(text: str) -> tuple[int, list[tuple[int, int]]] | None:
    """(n, edges) of a text in format_graph's shape that passes every line
    check, converted as whole lists; None for any other text, whose faults
    _parse_lines names by line."""
    if not _PLAIN_EDGE_LIST.fullmatch(text):
        return None
    nums = list(map(int, text.split()))
    us, vs = nums[2::2], nums[3::2]
    if nums[0] > MAX_GRAPH_N or len(us) != nums[1] \
            or (us and max(max(us), max(vs)) >= nums[0]) or any(map(eq, us, vs)):
        return None
    return nums[0], list(zip(us, vs))


def _parse_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) read line by line, or a GraphParseError naming the first
    line at fault."""
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
    return header[0], edges


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph: header plus one line per edge."""
    return ("%d %d\n" * (len(g.edges) + 1)) % (g.n, len(g.edges), *chain.from_iterable(g.edges))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: center 0, leaves 1..leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(m: int, n: int) -> Graph:
    """Grid with m columns and n rows; cell (i, j), 1-based, has id (i-1)*n + (j-1)."""
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    return cartesian_product(path_graph(m), path_graph(n))


def subdivided_doubled_triangle() -> Graph:
    """Triangle with every edge doubled, then every edge subdivided: 9 vertices.

    Vertices 0,1,2 are the original triangle; each pair is joined by two
    length-2 paths through fresh subdivision vertices 3..8.
    """
    edges = []
    nxt = 3
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for _ in range(2):
            edges.append((a, nxt))
            edges.append((nxt, b))
            nxt += 1
    return Graph(9, edges)


# ---------------------------------------------------------------------------
# domination and related

def _checked(vertices: Iterable[int], n: int) -> set[int]:
    """The vertex collection as a set, range-checked against n."""
    out = set()
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        out.add(v)
    return out


def is_dominating(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex is in s or adjacent to a member of s."""
    covered = bytearray(g.n)
    for v in _checked(s, g.n):
        covered[v] = 1
        for u in g._adj[v]:
            covered[u] = 1
    return 0 not in covered


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    members = _checked(s, g.n)
    return not any(u in members for v in members for u in g._adj[v])


def bfs_tree(g: Graph) -> tuple[list[int], list[int]]:
    """Breadth-first walk from vertex 0, neighbors in ascending order.

    Returns (parent, order): order lists the vertices reached from 0 in
    visiting order, and parent[v] is the vertex v was reached from (-1 for
    vertex 0 and for unreached vertices).  The empty graph gives ([], []).
    """
    if g.n == 0:
        return [], []
    parent = [-1] * g.n
    seen = [False] * g.n
    seen[0] = True
    order = [0]
    adj = g._adj
    for v in order:  # order grows while it is walked: a FIFO queue
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    return parent, order


def is_connected(g: Graph) -> bool:
    return len(bfs_tree(g)[1]) == g.n


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and len(g.edges) == g.n - 1 and is_connected(g)


def is_strong_graph(g: Graph) -> bool:
    """True iff some vertex is a strong stem: it has two or more degree-1
    neighbors (leaves)."""
    stems = set()
    for nbrs in g._adj:
        if len(nbrs) == 1:
            if nbrs[0] in stems:
                return True
            stems.add(nbrs[0])
    return False


# ---------------------------------------------------------------------------
# matchings

def _perfect_matching(rows: list[int]) -> list[int] | None:
    """The bit each row takes in a perfect matching of the rows into bit
    positions, where rows[i] is the mask of the positions row i may take,
    or None when some row cannot be matched.

    Rows are matched in order, each along a depth-first augmenting path
    that tries free positions in ascending order; the walk keeps its path
    on an explicit stack, so no path length meets the recursion limit."""
    owner: dict[int, int] = {}  # position -> the row matched to it
    for root in range(len(rows)):
        path = [root]  # rows on the augmenting path; via[i] leads from path[i]
        via: list[int] = []
        visited = 0
        while path:
            free = rows[path[-1]] & ~visited
            if not free:
                path.pop()
                if via:
                    via.pop()
                continue
            low = free & -free
            visited |= low
            pos = low.bit_length() - 1
            holder = owner.get(pos)
            if holder is not None:
                via.append(pos)
                path.append(holder)
                continue
            owner[pos] = path[-1]
            owner.update(zip(via, path))
            break
        else:
            return None
    taken = [0] * len(rows)
    for pos, row in owner.items():
        taken[row] = pos
    return taken


def _matching_rows(g: Graph, a: Iterable[int],
                   b: Iterable[int]) -> tuple[list[int], list[int], list[int]]:
    """(sorted a, sorted b, rows): rows[i] holds bit j when the i-th vertex
    of a is adjacent to the j-th of b.  Built from the adjacency tuples, so
    a graph's vertex masks are not needed.  Refuses sets of unequal size,
    overlapping sets and vertices out of range, a before b."""
    a_list = sorted(set(a))
    b_list = sorted(set(b))
    if len(a_list) != len(b_list):
        raise ContractError("matching endpoints must have equal size")
    if set(a_list) & set(b_list):
        raise ContractError("matching endpoints must be disjoint")
    _checked(a_list, g.n)
    _checked(b_list, g.n)
    position = {v: j for j, v in enumerate(b_list)}
    rows = [sum(1 << position[v] for v in g._adj[u] if v in position) for u in a_list]
    return a_list, b_list, rows


def matching_between(g: Graph, a: Iterable[int], b: Iterable[int]) -> tuple[tuple[int, int], ...] | None:
    """Perfect matching between disjoint equal-size vertex sets a and b using
    edges of g, or None if there is none.

    One augmenting-path search (_perfect_matching) over a in ascending
    order, partners tried in ascending order, so the result is
    deterministic; the b side is one bitmask over b's sorted positions."""
    a_list, b_list, rows = _matching_rows(g, a, b)
    taken = _perfect_matching(rows)
    if taken is None:
        return None
    return tuple(zip(a_list, map(b_list.__getitem__, taken)))


def lex_least_matching(g: Graph, a: Iterable[int], b: Iterable[int]) -> tuple[tuple[int, int], ...] | None:
    """Perfect matching between a and b minimizing the partner sequence of
    ascending a, or None.  Greedy: each vertex of a takes its least partner
    after which the rest of a can still be matched, which one
    _perfect_matching probe decides.  Refuses what matching_between
    refuses."""
    a_list, b_list, rows = _matching_rows(g, a, b)
    chosen: list[tuple[int, int]] = []
    free = (1 << len(b_list)) - 1
    for i, u in enumerate(a_list):
        options = rows[i] & free
        while options:
            low = options & -options
            options ^= low
            if _perfect_matching([row & free & ~low for row in rows[i + 1:]]) is not None:
                break
        else:
            return None
        free ^= low
        chosen.append((u, b_list[low.bit_length() - 1]))
    return tuple(chosen)


# ---------------------------------------------------------------------------
# swap certificates

class SwapCertificate(_Frozen):
    """Disjoint sets d and d_prime with a perfect matching between them.

    Matching pairs carry the d-side endpoint first.  A certificate verifies
    against a graph when both sets dominate it and every pair is an edge.
    """

    __slots__ = ("d", "d_prime", "matching")

    def __init__(self, d: frozenset[int], d_prime: frozenset[int],
                 matching: tuple[tuple[int, int], ...]):
        self._set(d, d_prime, matching)

    def size(self) -> int:
        return len(self.d)

    def to_json_dict(self) -> dict:
        return {
            "d": sorted(self.d),
            "d_prime": sorted(self.d_prime),
            "matching": [list(p) for p in sorted(self.matching)],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SwapCertificate":
        try:
            d = frozenset(map(_json_int, obj["d"]))
            dp = frozenset(map(_json_int, obj["d_prime"]))
            matching = tuple((_json_int(p[0]), _json_int(p[1])) for p in obj["matching"])
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"malformed certificate object: {exc}")
        return cls(d, dp, matching)

    @classmethod
    def build(cls, d: Iterable[int], d_prime: Iterable[int],
              matching: Iterable[tuple[int, int]]) -> "SwapCertificate":
        return cls(frozenset(d), frozenset(d_prime), tuple(sorted(matching)))


def _json_int(v) -> int:
    """v itself if it is a JSON integer; floats, strings and booleans are
    refused, not converted."""
    if type(v) is not int:
        raise ValueError(f"vertex {v!r} is not an integer")
    return v


def certificate_violations(g: Graph, cert: SwapCertificate) -> tuple[str, ...]:
    """All reasons the certificate fails against g, empty when it verifies."""
    problems = []
    out_of_range = [v for v in sorted(cert.d | cert.d_prime) if not 0 <= v < g.n]
    if out_of_range:
        return (f"vertex-out-of-range:{out_of_range[0]}",)
    overlap = cert.d & cert.d_prime
    if overlap:
        problems.append(f"sets-not-disjoint:{min(overlap)}")
    if len(cert.d) != len(cert.d_prime):
        problems.append(f"size-mismatch:{len(cert.d)}!={len(cert.d_prime)}")
    if len(cert.matching) != len(cert.d):
        problems.append(f"matching-size-mismatch:{len(cert.matching)}!={len(cert.d)}")
    seen_d, seen_dp = set(), set()
    for u, v in cert.matching:
        if u not in cert.d:
            problems.append(f"matched-vertex-not-in-d:{u}")
        elif u in seen_d:
            problems.append(f"vertex-matched-twice:{u}")
        if v not in cert.d_prime:
            problems.append(f"matched-vertex-not-in-d-prime:{v}")
        elif v in seen_dp:
            problems.append(f"vertex-matched-twice:{v}")
        seen_d.add(u)
        seen_dp.add(v)
        if 0 <= u < g.n and 0 <= v < g.n and not g.has_edge(u, v):
            problems.append(f"pair-not-an-edge:{u}-{v}")
    if not is_dominating(g, cert.d):
        problems.append("d-not-dominating")
    if not is_dominating(g, cert.d_prime):
        problems.append("d-prime-not-dominating")
    return tuple(problems)


def verify_certificate(g: Graph, cert: SwapCertificate) -> bool:
    """True iff d and d_prime are disjoint dominating sets of g joined by a
    perfect matching along edges of g."""
    return not certificate_violations(g, cert)


def certified(g: Graph, cert: SwapCertificate) -> SwapCertificate:
    """cert, once it verifies against g; a ConstructionError naming its
    violations otherwise.  Every function that builds a certificate returns
    it through this one check."""
    violations = certificate_violations(g, cert)
    if violations:
        raise ConstructionError(f"constructed certificate fails verification: "
                                f"{', '.join(violations)}")
    return cert


# ---------------------------------------------------------------------------
# independence and domination numbers

MAX_INDEPENDENCE_N = 40
MAX_DOMINATION_N = 30


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size by branch and bound on an
    explicit stack: a branch ends when its size plus its candidates cannot
    beat the best found, and otherwise splits on a candidate of most
    candidate neighbours (the least such vertex), taken first, then
    excluded."""
    if g.n > MAX_INDEPENDENCE_N:
        raise BudgetError(f"independence_number capped at n={MAX_INDEPENDENCE_N}, got n={g.n}")
    opens, closed = g._open, g._closed
    best = 0
    stack = [(g.full_mask, 0)]  # (candidates, size) of the branches still open
    while stack:
        candidates, size = stack.pop()
        left = candidates.bit_count()
        if size + left <= best:
            continue
        pivot, pivot_deg = -1, 0
        m = candidates
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (opens[v] & candidates).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        if not pivot_deg:
            best = size + left  # the candidates are independent
            continue
        stack.append((candidates & ~(1 << pivot), size))
        stack.append((candidates & ~closed[pivot], size + 1))
    return best


def dominating_sets_lex(g: Graph, k: int, allowed_mask: int | None = None) -> Iterator[int]:
    """Yield bitmasks of all dominating sets of g of size exactly k drawn from
    allowed_mask, in lexicographic order of the sorted vertex tuple.

    Sets need not be minimal: redundant members are legal, which matters when
    k exceeds the domination number.  One depth-first loop over the allowed
    vertices, its open choices on an explicit stack, with two prunes: a
    branch ends once the picks left times the largest closed neighbourhood
    still allowed cannot cover the undominated vertices, and a vertex's
    siblings end once some undominated vertex lies outside every closed
    neighbourhood from it on.  The last pick is drawn only from the closed
    neighbourhood of the least vertex still undominated, which it must
    dominate.
    """
    if allowed_mask is None:
        allowed_mask = g.full_mask
    if k <= 0:
        if k == 0 and not g.full_mask:
            yield 0  # the empty set dominates the empty graph
        return
    closed = g._closed
    verts = [v for v in range(g.n) if allowed_mask >> v & 1]
    # cover[i] = union of the closed neighborhoods of verts[i:], widest[i] =
    # size of the largest of them; both end in 0 for the empty suffix
    backwards = [closed[v] for v in reversed(verts)]
    cover = [*accumulate(backwards, or_)][::-1] + [0]
    widest = [*accumulate(map(int.bit_count, backwards), max)][::-1] + [0]
    if k * widest[0] < g.n:
        return
    # stack[d] = (the indices of verts left to try, chosen, undominated) at
    # depth d: the sets with d members that are still open
    stack = [(iter(range(len(verts))), 0, g.full_mask)]
    while stack:
        picks, chosen, undominated = stack[-1]
        slots = k - len(stack)  # the picks left after this one
        for i in picks:
            if undominated & ~cover[i]:
                stack.pop()  # some vertex can no longer be covered by any later pick
                break
            v = verts[i]
            rest = undominated & ~closed[v]
            if slots > 1:
                if slots * widest[i + 1] >= rest.bit_count():
                    stack.append((iter(range(i + 1, len(verts))), chosen | 1 << v, rest))
                    break
            elif not slots:
                if not rest:
                    yield chosen | 1 << v
            elif not rest:
                for w in verts[i + 1:]:
                    yield chosen | 1 << v | 1 << w
            elif rest.bit_count() <= widest[i + 1]:
                # the last pick must dominate the least undominated vertex,
                # so it is a later allowed member of its closed neighborhood
                later = closed[(rest & -rest).bit_length() - 1] & allowed_mask & -(2 << v)
                while later:
                    low = later & -later
                    later ^= low
                    if not rest & ~closed[low.bit_length() - 1]:
                        yield chosen | 1 << v | low
        else:
            stack.pop()


def has_dominating_set(g: Graph, k: int) -> bool:
    """Is there a dominating set of size at most k?  Cheaper than computing
    the domination number when only a threshold matters.  Supersets of a
    dominating set dominate, so one of size min(k, n) is searched for."""
    return k >= 0 and next(dominating_sets_lex(g, min(k, g.n)), None) is not None


def _require_domination_size(g: Graph) -> None:
    """Above MAX_DOMINATION_N vertices the searches for least dominating
    sets (domination_number and the swap pair search) refuse to start."""
    if g.n > MAX_DOMINATION_N:
        raise BudgetError(f"domination_number capped at n={MAX_DOMINATION_N}, got n={g.n}")


def domination_number(g: Graph) -> int:
    """Exact domination number by increasing-cardinality search."""
    _require_domination_size(g)
    lb = -(-g.n // max((m.bit_count() for m in g._closed), default=1))
    return next(k for k in count(lb) if has_dominating_set(g, k))


# ---------------------------------------------------------------------------
# products

def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (a, b) gets flat id a * h.n + b.

    (a,b) ~ (a',b') iff a=a' and bb' is an edge of h, or b=b' and aa' is an
    edge of g.
    """
    hn = h.n
    # the higher neighbours of each vertex as id steps: those along h (same
    # a) stay in a's block, below every one along g, so walking the vertices
    # in id order emits the edges strictly ascending and Graph checks them
    # column by column
    h_up = [[w - b for w in nbrs if w > b] for b, nbrs in enumerate(h._adj)]
    g_up = [[(w - a) * hn for w in nbrs if w > a] for a, nbrs in enumerate(g._adj)]
    edges = [(v, v + step)
             for a, g_steps in enumerate(g_up) for b, h_steps in enumerate(h_up)
             for v in (a * hn + b,) for step in h_steps + g_steps]
    return Graph(g.n * hn, edges)


# ---------------------------------------------------------------------------
# exhaustive scans on two cores

# shorter lists are mapped in-process.  A split costs a few ms (the fork,
# the child's page copies, reaping), so where it pays depends on the
# items.  On a 2-vCPU machine whose second CPU was free only part of the
# time, with the collector off: a split of 400 trivial items took 2.2 to
# 2.7 ms longer than the plain map (medians of 30).  In fresh processes
# (medians of 40 alternating runs), the six-vertex census level, 333 jobs
# of which 118 are labelled, took 9.3 ms in-process against 12.5 ms split;
# fills of the 143 records up to six vertices took 1.7 against 4.4 ms for
# alpha alone and 12.4 against 15.8 ms for alpha, gamma and the swap
# number.  The constant sits just above the six-vertex level, near where
# alpha-only fills broke even in earlier runs (7.5 against 9.5 ms at 256
# records, 15.7 against 13.9 ms at 512); the seven-vertex level (3,771
# jobs) and the fills of the scans to seven vertices (587 records or
# more) split.
_SPLIT_MIN_ITEMS = 400


def _split_map(fn, items: Sequence) -> list:
    """[fn(x) for x in items], with the items at odd indices computed in one
    forked child process where os.fork exists, at least two CPUs are
    allowed, the process runs no other thread (a lock another thread held
    at the fork would never be released in the child) and the list holds at
    least _SPLIT_MIN_ITEMS items; anywhere else, or when the fork fails, the
    whole map runs in-process.

    fn's results must be plain data (ints, strs, lists, tuples, dicts and
    None), which the child passes back through a pipe with marshal.  The
    child always ends with os._exit, so it runs no finally clause or atexit
    hook of its caller, flushes no buffered output and prints nothing.  The
    parent maps the even indices, in order, and then reaps the child; when
    the child failed or its data is short, the parent maps the odd indices
    itself, after its own, so an exception the child met is raised here,
    in-process, as usual.  When the parent's own share raises, the child is
    killed and reaped first.  Alternating items, rather than halves, keeps
    the shares even where the cost of an item drifts along the list."""
    threading = sys.modules.get("threading")
    if (len(items) < _SPLIT_MIN_ITEMS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
            or threading is not None and threading.active_count() > 1):
        return list(map(fn, items))
    head, tail = items[::2], items[1::2]
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_end)
        os.close(write_end)
        return list(map(fn, items))
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(list(map(fn, tail))))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        try:
            done = list(map(fn, head))
            data = pipe.read()
        except BaseException:
            os.kill(pid, 9)  # SIGKILL
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    try:
        rest = marshal.loads(data) if status == 0 else None
    except (EOFError, ValueError, TypeError):
        rest = None
    if type(rest) is not list or len(rest) != len(tail):
        rest = list(map(fn, tail))
    merged = [None] * len(items)
    merged[::2], merged[1::2] = done, rest
    return merged
