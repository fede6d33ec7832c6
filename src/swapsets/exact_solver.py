"""Exact swap-number solver.

The swap number of a graph is the least k admitting two disjoint dominating
sets of size k joined by a perfect matching; graphs without such a pair have
infinite swap number.  The solver certifies both outcomes: a finite answer
carries a certificate, an infinite one means every k up to n//2 was exhausted
(beyond n//2 two disjoint size-k sets cannot exist).
"""

from __future__ import annotations

from .graph_core import (
    ConstructionError,
    ContractError,
    Graph,
    SwapCertificate,
    _Frozen,
    _mask_members,
    _perfect_matching,
    _require_domination_size,
    certified,
    dominating_sets_lex,
    is_strong_graph,
    lex_least_matching,
    members_of,
)

FINITE = "finite"
INFINITE = "infinite"
BUDGET_EXCEEDED = "budget_exceeded"


class DdmResult(_Frozen):
    """Outcome of a swap-number computation.

    status is one of "finite", "infinite", "budget_exceeded"; k and
    certificate are populated exactly when finite.
    """

    __slots__ = ("status", "k", "certificate")

    def __init__(self, status: str, k: int | None = None,
                 certificate: SwapCertificate | None = None):
        self._set(status, k, certificate)

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.status == FINITE:
            out["ddm"] = self.k
            out["certificate"] = self.certificate.to_json_dict()
        elif self.status == INFINITE:
            out["ddm"] = "infinity"
        else:
            out["ddm"] = None
        return out


def finite_result(cert: SwapCertificate) -> DdmResult:
    return DdmResult(FINITE, cert.size(), cert)


def _neighborhood_mask(g: Graph, mask: int) -> int:
    out = 0
    for v in _mask_members(mask):
        out |= g.open_mask(v)
    return out


def _certificate_for(g: Graph, d_mask: int, dp_mask: int) -> SwapCertificate:
    d = members_of(d_mask)
    dp = members_of(dp_mask)
    matching = lex_least_matching(g, d, dp)
    if matching is None:
        raise ConstructionError("swap pair search returned an unmatched pair")
    return certified(g, SwapCertificate.build(d, dp, matching))


def _first_pair(g: Graph, ks: range, node_budget: int) -> DdmResult:
    """Lexicographically least swap pair at the least k in ks: finite with
    its certificate, infinite when no k in ks has one, or budget_exceeded
    once node_budget candidate D' sets, counted across all k, are spent.
    Below the domination number no D exists, so ks may start low."""
    _require_domination_size(g)
    opens = g._open
    spent = 0
    for k in ks:
        for d_mask in dominating_sets_lex(g, k):
            allowed = _neighborhood_mask(g, d_mask) & ~d_mask
            if allowed.bit_count() < k:
                continue
            d_rows = [opens[u] for u in _mask_members(d_mask)]
            for dp_mask in dominating_sets_lex(g, k, allowed):
                if spent >= node_budget:
                    return DdmResult(BUDGET_EXCEEDED)
                spent += 1
                # D matched into D', one bitmask of D' per member of D
                if _perfect_matching([row & dp_mask for row in d_rows]) is not None:
                    return finite_result(_certificate_for(g, d_mask, dp_mask))
    return DdmResult(INFINITE)


def dd_m_exact(g: Graph, node_budget: int = 100_000_000) -> DdmResult:
    """Exact swap number with certificate.

    Searches k from 1 up to n//2, enumerating candidate (D, D') pairs (below
    the domination number there is no D); node_budget bounds how many pairs
    are examined.  The returned certificate is the lexicographically least
    one at the minimum k (least D, then least D', then least matching).  A
    vertex with two or more leaf neighbors makes every outcome infinite, so
    that case short-circuits; swap_pair_below(g, g.n // 2 + 1) runs the same
    search without it.
    """
    if g.n == 0:
        raise ContractError("swap number needs a non-empty graph")
    if is_strong_graph(g):
        return DdmResult(INFINITE)
    return _first_pair(g, range(1, g.n // 2 + 1), node_budget)


def swap_pair_below(g: Graph, bound: int, node_budget: int = 100_000_000) -> DdmResult:
    """Search for a swap pair of size strictly below bound.

    Certified: finite means a pair of size < bound exists, infinite means no
    pair of any size < bound exists.  Used to refute or confirm lower-bound
    claims without computing the full swap number.
    """
    if g.n == 0:
        raise ContractError("swap pair search needs a non-empty graph")
    return _first_pair(g, range(1, min(bound, g.n // 2 + 1)), node_budget)
