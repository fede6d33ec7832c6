"""Swap certificates on grid graphs via token placement.

An m x n grid is dominated at density about 1/5 by a diagonal pattern that
dominates every vertex exactly once.  Placing tokens on that pattern (black
tokens that will move one column right, white tokens that will move one
column left) gives two disjoint dominating sets with a perfect matching:
the token set before the move and after.  Boundary rows and columns need a
handful of extra tokens, and grid corners occasionally need a local repair,
found here by bounded search and accepted only when the full certificate
verifies.

Also provides the 3 x (4k+1) strip family whose swap number exceeds its
domination number by exactly one, and a frontier DP for the grid domination
number used for lower-bound cross-checks.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterator

from .graph_core import (
    ConstructionError,
    ContractError,
    Graph,
    SwapCertificate,
    _Frozen,
    certified,
    grid_graph,
)


class GridSpec(_Frozen):
    """An m-column, n-row grid; vertex (i,j) sits in column i, row j."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ContractError("grid dimensions must be positive")
        self._set(m, n)

    def in_bounds(self, i: int, j: int) -> bool:
        return 1 <= i <= self.m and 1 <= j <= self.n

    def vertex(self, i: int, j: int) -> int:
        if not self.in_bounds(i, j):
            raise ContractError(f"({i},{j}) outside {self.m}x{self.n} grid")
        return (i - 1) * self.n + (j - 1)


class TokenBoard(_Frozen):
    """Token positions on a grid; black tokens move right, white move left."""

    __slots__ = ("m", "n", "black", "white")

    def __init__(self, m: int, n: int, black: frozenset, white: frozenset):
        if black & white:
            raise ContractError("a cell cannot hold two tokens")
        spec = GridSpec(m, n)
        for (i, j) in black | white:
            if not spec.in_bounds(i, j):
                raise ContractError(f"token at ({i},{j}) outside the grid")
        self._set(m, n, black, white)

    def render(self) -> str:
        rows = []
        for j in range(self.n, 0, -1):
            rows.append("".join(
                "B" if (i, j) in self.black else
                "W" if (i, j) in self.white else "."
                for i in range(1, self.m + 1)))
        return "\n".join(rows)


def perfect_dom_member(x: int, y: int, t: int) -> bool:
    """Is (x,y) in the diagonal perfect dominating set S_t of the infinite
    grid?  Realized as the congruence 2y = x + 2t (mod 5); every vertex of
    the plane then has exactly one closed neighbor in S_t."""
    if not 0 <= t <= 4:
        raise ContractError("t must be in 0..4")
    return (2 * y - x - 2 * t) % 5 == 0


# ---------------------------------------------------------------------------
# the m >= n >= 8 construction

def _base_board(m: int, n: int) -> tuple[set, set]:
    black: set = set()
    white: set = set()

    def place_white(i, j):
        if i == m and j == 1:
            # a white token there would shift onto the same cell as the
            # black token arriving from (m-2,1); park it one row up
            i, j = m, 2
        if (i, j) not in black and (i, j) not in white:
            white.add((i, j))

    for i in range(1, m):
        for j in range(1, n + 1):
            if perfect_dom_member(i, j, 3):
                black.add((i, j))
    for j in range(1, n + 1):
        if perfect_dom_member(m, j, 3):
            place_white(m, j)
    for i in range(1, m + 1):
        for (outside, inside) in (((i, n + 1), (i, n)), ((i, 0), (i, 1))):
            if perfect_dom_member(*outside, 3):
                if i < m:
                    black.add(inside)
                else:
                    place_white(*inside)  # column-m tokens must move left
    for j in range(1, n + 1):
        if perfect_dom_member(0, j, 3) or perfect_dom_member(-1, j, 3):
            place_white(2, j)
        if perfect_dom_member(m + 1, j, 3):
            place_white(m, j)
    if perfect_dom_member(0, n + 1, 3):
        place_white(2, n)
    if perfect_dom_member(m + 1, n + 1, 3):
        place_white(m, n)
    # the rule for (m+1,0) names the out-of-range cell (m,0); any resulting
    # gap at that corner is left to the repair pass
    return black, white


def _board_problems(m: int, n: int, black: set, white: set, window) -> set:
    """Cells of the rectangle window = (lo_i, hi_i, lo_j, hi_j) witnessing a
    failure: blocked or colliding token moves, or a vertex left undominated
    by the tokens before or after the move.

    The answer is exactly the whole board's answer restricted to the window:
    moves are horizontal, so only tokens within two columns and one row of
    the rectangle can mark one of its cells.
    """
    lo_i, hi_i, lo_j, hi_j = window
    problems = set()
    targets = {}
    before = set()  # closed neighbourhoods of the tokens
    after = set()  # closed neighbourhoods of the claimed targets
    for i in range(max(1, lo_i - 2), min(m, hi_i + 2) + 1):
        for j in range(max(1, lo_j - 1), min(n, hi_j + 1) + 1):
            if (i, j) in black:
                t = (i + 1, j)
            elif (i, j) in white:
                t = (i - 1, j)
            else:
                continue
            before.update(((i, j), (i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)))
            ti, tj = t
            if not (1 <= ti <= m and 1 <= tj <= n):
                problems.add((i, j))
                continue
            if t in black or t in white:
                problems.update({(i, j), t})
            if t in targets:
                problems.update({(i, j), targets[t]})
            else:
                targets[t] = (i, j)
                after.update((t, (ti - 1, tj), (ti + 1, tj), (ti, tj - 1), (ti, tj + 1)))
    for i in range(lo_i, hi_i + 1):
        for j in range(lo_j, hi_j + 1):
            if (i, j) not in before or (i, j) not in after:
                problems.add((i, j))
    return {(i, j) for i, j in problems if lo_i <= i <= hi_i and lo_j <= j <= hi_j}


def _corner_ops(box_cells, black, white):
    """Single token edits inside a corner box as (state, cell) pairs: each
    cell in turn takes the states black, white and empty except its own."""
    ops = []
    for c in box_cells:
        current = "black" if c in black else "white" if c in white else "empty"
        ops += [(state, c) for state in ("black", "white", "empty") if state != current]
    return ops


def _apply_ops(ops, black, white):
    """The board with each edited cell set to its new state."""
    nb, nw = set(black), set(white)
    for state, c in ops:
        nb.discard(c)
        nw.discard(c)
        if state == "black":
            nb.add(c)
        elif state == "white":
            nw.add(c)
    return nb, nw


def _repair_corners(m: int, n: int, black: set, white: set, size_cap: int):
    """The board with each corner whose cells within 4 show a problem on the
    base board repaired by one or two token edits within 2 of it.  The
    repaired board is checked only as the certificate it becomes."""
    corners = ((m, 1), (1, n), (m, n), (1, 1))
    # the cells within 4 of each corner, clipped to the board
    windows = [(max(1, ci - 4), min(m, ci + 4), max(1, cj - 4), min(n, cj + 4))
               for ci, cj in corners]
    broken = [(corner, window) for corner, window in zip(corners, windows)
              if _board_problems(m, n, black, white, window)]
    for (ci, cj), window in broken:
        box = sorted((i, j)
                     for i in range(max(1, ci - 2), min(m, ci + 2) + 1)
                     for j in range(max(1, cj - 2), min(n, cj + 2) + 1))
        # every edit lies within 2 of the corner and changes the problem
        # status only of cells within 2 of itself, so the cells within 4 of
        # the corner are the only ones to re-check
        singles = _corner_ops(box, black, white)
        candidates = [[op] for op in singles]
        candidates += [[a, b] for a, b in combinations(singles, 2) if a[1] != b[1]]
        for cand in candidates:
            nb, nw = _apply_ops(cand, black, white)
            if len(nb) + len(nw) > size_cap:
                continue
            if _board_problems(m, n, nb, nw, window):
                continue
            black, white = nb, nw
            break
        else:
            raise ConstructionError(f"no local repair found at corner {(ci, cj)}")
    return black, white


def grid_swap_construct(m: int, n: int) -> tuple[Graph, SwapCertificate, TokenBoard]:
    """Swap certificate on the m x n grid of size at most
    floor((n+2)(m+3)/5), for m >= n >= 8.

    Black tokens go on the diagonal pattern's members away from the last
    column, white tokens on its members in the last column and on boundary
    make-up cells; D is the tokens as placed and D' the tokens after every
    black moves one column right and every white one column left.  The few
    corner arrangements the placement rules leave broken are repaired by a
    bounded local search that must produce a verifying board.
    """
    if n < 8 or m < n:
        raise ContractError("construction needs m >= n >= 8")
    size_cap = (n + 2) * (m + 3) // 5
    black, white = _base_board(m, n)
    black, white = _repair_corners(m, n, black, white, size_cap)
    board = TokenBoard(m, n, frozenset(black), frozenset(white))
    spec = GridSpec(m, n)
    matching = []
    for (i, j) in sorted(black):
        matching.append((spec.vertex(i, j), spec.vertex(i + 1, j)))
    for (i, j) in sorted(white):
        matching.append((spec.vertex(i, j), spec.vertex(i - 1, j)))
    d = [a for a, _ in matching]
    dp = [b for _, b in matching]
    g = grid_graph(m, n)
    cert = certified(g, SwapCertificate.build(d, dp, matching))
    if cert.size() > size_cap:
        raise ConstructionError(f"certificate size {cert.size()} exceeds {size_cap}")
    return g, cert, board


# ---------------------------------------------------------------------------
# the 3 x (4k+1) strip family

def _strip_cells(k: int):
    """Golden pattern: D cells, D' cells, and the domino matching, derived
    once by exhaustive search on small strips.  Rows are 0..2 bottom-up.

    Layout: a two-column left cap, k-1 copies of a four-column tile, and a
    three-column right cap closed by two vertical dominoes.
    """
    d = [(1, 1)]
    dp = [(2, 0), (2, 1), (2, 2)]
    matching = [((1, 1), (2, 1))]
    for b in range(3, 4 * k - 4, 4):
        d += [(b, 0), (b, 2), (b + 2, 1)]
        dp += [(b + 1, 1), (b + 3, 0), (b + 3, 2)]
        matching += [((b, 0), (b - 1, 0)), ((b, 2), (b - 1, 2)),
                     ((b + 2, 1), (b + 1, 1))]
    tail = 4 * k - 1
    d += [(tail, 0), (tail, 2), (tail + 1, 2), (tail + 2, 0)]
    dp += [(tail + 1, 1), (tail + 2, 1)]
    matching += [((tail, 0), (tail - 1, 0)), ((tail, 2), (tail - 1, 2)),
                 ((tail + 1, 2), (tail + 1, 1)), ((tail + 2, 0), (tail + 2, 1))]
    return d, dp, matching


def p3_strip_swap(k: int) -> tuple[Graph, SwapCertificate]:
    """Certificate of size exactly 3k+2 on the 3 x (4k+1) strip, one more
    than its domination number."""
    if k < 3:
        raise ContractError("strip family starts at k = 3")
    n = 4 * k + 1
    d, dp, matching = _strip_cells(k)
    flat = lambda cell: (cell[0] - 1) * 3 + cell[1]
    g = grid_graph(n, 3)
    cert = certified(g, SwapCertificate.build(
        [flat(c) for c in d], [flat(c) for c in dp],
        [(flat(a), flat(b)) for a, b in matching]))
    if cert.size() != 3 * k + 2:
        raise ConstructionError("strip certificate has the wrong size")
    return g, cert


# ---------------------------------------------------------------------------
# grid domination number by a frontier DP

def gamma_grid_dp(rows: int, cols: int) -> int:
    """Exact domination number of the rows x cols grid by a cell-by-cell
    (broken-profile) DP.  The sweep visits the grid column by column and,
    within a column, row by row from the top.  Its frontier holds, per row,
    the last cell visited in that row: in the set, dominated, or still
    waiting on a later neighbour (the cell below it in its column or the
    next cell in its row)."""
    if not 1 <= rows <= 8:
        raise ContractError("frontier DP supports 1..8 rows")
    if cols < 1:
        raise ContractError("cols must be positive")
    return next(islice(_gamma_sweep(rows), cols - 1, None))


def _gamma_sweep(rows: int) -> Iterator[int]:
    """Domination numbers of the rows x 1, rows x 2, ... grids, one column
    of cell steps per value.  A state is one int: bit r is set when row r's
    frontier cell is in the set, bit rows + r when it is waiting.  Visiting
    row r, that cell is the one to the left and row r - 1's the one above."""
    # the column before the first: dominated cells, none in the set
    cur = {0: 0}
    while True:
        for r in range(rows):
            cell = 1 << r
            wait = cell << rows
            above = cell >> 1
            # in the set: the cell above and the cell to the left stop waiting
            taken = ~(wait | (above << rows))
            nxt: dict[int, int] = {}
            for key, cost in cur.items():
                k = (key | cell) & taken
                c = cost + 1
                if c < nxt.get(k, c + 1):
                    nxt[k] = c
                # left out: only if the cell to the left (its last chance) is
                # not waiting; dominated if it or the cell above is in the set
                if not key & wait:
                    k = key & ~cell if key & (cell | above) else (key & ~cell) | wait
                    if cost < nxt.get(k, cost + 1):
                        nxt[k] = cost
            cur = nxt
        # a key below 1 << rows has no waiting cell
        yield min(cost for key, cost in cur.items() if key < 1 << rows)


# ---------------------------------------------------------------------------
# density report

class GridDensityRow(_Frozen):
    __slots__ = ("m", "n", "d_size", "mn_over_5", "bound", "gamma")

    def __init__(self, m: int, n: int, d_size: int, mn_over_5: float, bound: int,
                 gamma: int | None):
        self._set(m, n, d_size, mn_over_5, bound, gamma)


class GridDensityReport:
    def __init__(self, max_mn: int):
        self.max_mn = max_mn
        self.rows: list[GridDensityRow] = []

    def to_tsv(self) -> str:
        lines = ["m\tn\td_size\tmn_over_5\tbound\tgamma"]
        for r in self.rows:
            gamma = "" if r.gamma is None else str(r.gamma)
            lines.append(f"{r.m}\t{r.n}\t{r.d_size}\t{r.mn_over_5:.1f}"
                         f"\t{r.bound}\t{gamma}")
        return "\n".join(lines) + "\n"


def grid_density_report(max_mn: int) -> GridDensityReport:
    """Construction size against mn/5 and the formula bound for all
    8 <= n <= m <= max_mn, with the exact domination number where the
    frontier DP can reach (n <= 8)."""
    report = GridDensityReport(max_mn)
    # gamma of the 8 x 8, 8 x 9, ... grids, one sweep for all n = 8 rows
    gammas = islice(_gamma_sweep(8), 7, None)
    for n in range(8, max_mn + 1):
        for m in range(n, max_mn + 1):
            _, cert, _ = grid_swap_construct(m, n)
            gamma = next(gammas) if n == 8 else None
            report.rows.append(GridDensityRow(
                m, n, cert.size(), m * n / 5,
                (n + 2) * (m + 3) // 5, gamma))
    return report
