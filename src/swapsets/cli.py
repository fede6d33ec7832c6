"""Command-line front end.

Subcommands mirror the library: exact computation, certificate
verification, tree analysis, the constructive families, the domination DP,
exhaustive scans, and the grid density report.  Graph arguments accept a
path to an edge-list file or a generator token (pN, cN, k1,N, grid:MxN).

Exit codes: 0 success or verified; 1 verification failed or counterexample
found; 2 usage or input error; 3 budget exceeded; 4 internal error, a
construction that failed its own check.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .exact_solver import BUDGET_EXCEEDED, dd_m_exact
from .graph_core import (
    BudgetError,
    ConstructionError,
    ContractError,
    Graph,
    GraphParseError,
    MAX_GRAPH_N,
    SwapCertificate,
    certificate_violations,
    cycle_graph,
    format_graph,
    grid_graph,
    parse_graph,
    path_graph,
    star_graph,
)
from .tree_algorithms import analyse_tree

_GENERATORS = re.compile(r"^(?:p(\d+)|c(\d+)|k1,(\d+)|grid:(\d+)x(\d+))$")


def _check_size(what: str, n: int) -> None:
    """Refuse a graph of n vertices above the cap before building it."""
    if n > MAX_GRAPH_N:
        raise ContractError(f"{what} has {n} vertices, above the cap of {MAX_GRAPH_N}")


def load_graph(token: str) -> Graph:
    """A generator token, or failing that a path to an edge-list file."""
    m = _GENERATORS.match(token)
    if m:
        p, c, k, gm, gn = m.groups()
        n = (int(p) if p is not None else int(c) if c is not None
             else int(k) + 1 if k is not None else int(gm) * int(gn))
        _check_size(f"graph token {token!r}", n)
        try:
            if p is not None:
                return path_graph(int(p))
            if c is not None:
                return cycle_graph(int(c))
            if k is not None:
                return star_graph(int(k))
            return grid_graph(int(gm), int(gn))
        except ValueError as exc:
            # c0..c2 and grid sides of 0 match the pattern but name no graph
            raise ContractError(f"graph token {token!r}: {exc}") from exc
    try:
        with open(token, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ContractError(f"graph file {token!r}: {exc}") from exc
    return parse_graph(text)


def _dumps(obj, pad: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, at C speed
    for the large payloads: lists of ints are joined in one step, and lists
    of int lists (edges, matchings) and of flat dicts (partition parts) are
    laid out as one template of %d fields, filled in one % step.  pad is the
    indent of the line obj starts on."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = _dumps(key)
            items.append(encode_basestring_ascii(key) + ": "
                         + (int.__repr__(value) if type(value) is int else _dumps(value, inner)))
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)  # None, bools, floats; anything else raises
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == {int}:
        body = sep.join(map(int.__repr__, obj))
    elif kinds <= {list, tuple} and (shapes := _int_list_shapes(obj, inner)):
        body = sep.join(map(shapes.__getitem__, map(len, obj))) % tuple(chain.from_iterable(obj))
    elif kinds == {dict} and (fields := _flat_dicts(obj, inner)):
        template, args = fields
        body = template % tuple(args)
    else:
        body = sep.join(_dumps(value, inner) for value in obj)
    return "[\n" + inner + body + "\n" + pad + "]"


def _int_list_shapes(lists, pad: str) -> dict | None:
    """The %d template of each length among lists of ints printed at pad,
    or None unless every item of every list is an int (bools and other int
    subclasses print otherwise)."""
    if not set(map(type, chain.from_iterable(lists))) <= {int}:
        return None
    deeper = pad + "  "
    return {k: "[\n" + deeper + (",\n" + deeper).join(["%d"] * k) + "\n" + pad + "]"
            if k else "[]" for k in set(map(len, lists))}


def _flat_dicts(dicts, pad: str):
    """(template, args) that print a list of dicts at pad when the dicts
    share their str keys, in one order, and each value column holds ints
    or lists of ints; else None.  Work is per column, not per value."""
    keys = set(map(tuple, dicts))
    if len(keys) != 1:
        return None
    (keys,) = keys
    if not keys or not all(type(key) is str for key in keys):
        return None
    deeper = pad + "  "
    columns, args = [], []
    for key in sorted(keys):
        column = list(map(itemgetter(key), dicts))
        head = encode_basestring_ascii(key).replace("%", "%%") + ": "
        kinds = set(map(type, column))
        if kinds == {int}:
            columns.append(repeat(head + "%d", len(column)))
            args.append(zip(column))
            continue
        shapes = _int_list_shapes(column, deeper) if kinds <= {list, tuple} else None
        if shapes is None:
            return None
        columns.append(map(head.__add__, map(shapes.__getitem__, map(len, column))))
        args.append(column)
    rows = map((",\n" + deeper).join, zip(*columns))
    template = ("{\n" + deeper + ("\n" + pad + "},\n" + pad + "{\n" + deeper).join(rows)
                + "\n" + pad + "}")
    return template, chain.from_iterable(chain.from_iterable(zip(*args)))


def _emit(obj) -> None:
    sys.stdout.write(_dumps(obj) + "\n")


def _cmd_compute(args) -> int:
    g = load_graph(args.graph)
    result = dd_m_exact(g, node_budget=args.budget)
    _emit(result.to_json_dict())
    return 3 if result.status == BUDGET_EXCEEDED else 0


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    try:
        with open(args.certificate, encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ContractError(f"certificate file {args.certificate!r}: {exc}") from exc
    if isinstance(payload, dict) and "certificate" in payload:
        payload = payload["certificate"]
    try:
        cert = SwapCertificate.from_json_dict(payload)
    except ValueError as exc:
        raise ContractError(f"certificate file {args.certificate!r}: {exc}") from exc
    violations = certificate_violations(g, cert)
    _emit({"verified": not violations, "violations": list(violations)})
    return 0 if not violations else 1


def _cmd_tree(args) -> int:
    _emit(analyse_tree(load_graph(args.graph)).to_json_dict())
    return 0


def _construct_payload(g: Graph, cert: SwapCertificate, extra=None) -> dict:
    payload = {
        "graph": {"n": g.n, "edges": g.edges},
        "certificate": cert.to_json_dict(),
        "size": cert.size(),
    }
    if extra:
        payload.update(extra)
    return payload


def _cmd_construct(args) -> int:
    from .grid_constructions import grid_swap_construct, p3_strip_swap
    from .product_constructions import product_swap_general, star_product_swap

    board = None
    if args.family == "star-product":
        _check_size(f"star-product {args.a} {args.b}", (args.a + 1) * (args.b + 1))
        g, cert = star_product_swap(args.a, args.b)
        payload = _construct_payload(g, cert)
    elif args.family == "grid":
        _check_size(f"grid {args.a} {args.b}", args.a * args.b)
        g, cert, board = grid_swap_construct(args.a, args.b)
        payload = _construct_payload(g, cert, {"board": board.render().split("\n")})
    elif args.family == "p3-strip":
        _check_size(f"p3-strip {args.a}", 3 * (4 * args.a + 1))
        g, cert = p3_strip_swap(args.a)
        payload = _construct_payload(g, cert)
    else:
        left, right = load_graph(args.g), load_graph(args.h)
        _check_size(f"product of {args.g} and {args.h}", left.n * right.n)
        g, cert = product_swap_general(left, right)
        payload = _construct_payload(g, cert)
    if board is not None and args.format == "ascii":
        sys.stdout.write(board.render() + "\n")
    else:
        _emit(payload)
    if args.graph_out:
        with open(args.graph_out, "w", encoding="utf-8") as fh:
            fh.write(format_graph(g))
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            fh.write(_dumps(cert.to_json_dict()) + "\n")
    return 0


def _cmd_gamma_dp(args) -> int:
    from .grid_constructions import gamma_grid_dp

    gamma = gamma_grid_dp(args.rows, args.cols)
    _emit({"rows": args.rows, "cols": args.cols, "gamma": gamma})
    return 0


def _scan_alpha2(max_n: int) -> tuple[dict, int]:
    """The alpha-2 scan: the records in the construction's domain it misses."""
    from .small_alpha import _MATCHED_MIN_N, _alpha_records

    records = [rec for rec in _alpha_records(max_n, 2) if rec.n >= _MATCHED_MIN_N[2]]
    failures = [{"graph_id": rec.graph_id, "graph": format_graph(rec.graph)}
                for rec in records if not rec.matched]
    out = {"scan": "alpha2", "max_n": max_n, "checked": len(records),
           "failures": failures}
    return out, (1 if failures else 0)


def _scan_alpha3(max_n: int) -> tuple[dict, int]:
    """The alpha-3 scan: the stage of alpha3_swap_with_stage on each record
    in the construction's domain, and the bound check.  Both read
    small_alpha._alpha_records, which solves exactly only the records the
    matched-partner construction misses."""
    from .small_alpha import _MATCHED_MIN_N, _alpha_records, alpha3_bound_check

    stages: dict = {}
    no_swap = []
    records = [rec for rec in _alpha_records(max_n, 3) if rec.n >= _MATCHED_MIN_N[3]]
    for rec in records:
        # the stages of alpha3_swap_with_stage, on the values the record holds
        if rec.matched:
            stage = "matched-dominating"
        elif rec.ddm != "infinity":
            stage = "fallback"
        else:
            no_swap.append({"graph_id": rec.graph_id,
                            "graph": format_graph(rec.graph)})
            continue
        stages[stage] = stages.get(stage, 0) + 1
    bound = alpha3_bound_check(max_n)
    out = {
        "scan": "alpha3", "max_n": max_n, "checked": len(records),
        "stages": stages,
        "existence_counterexamples": no_swap,
        "bound_records": len(bound.records),
        "bound_counterexamples": bound.counterexamples,
    }
    return out, (1 if no_swap or bound.counterexamples else 0)


def _cmd_scan(args) -> int:
    if args.format == "tsv" and args.kind in ("alpha2", "alpha3"):
        raise ContractError(f"scan {args.kind} has no tsv format")
    if args.kind == "alpha2":
        out, code = _scan_alpha2(args.max_n)
    elif args.kind == "alpha3":
        out, code = _scan_alpha3(args.max_n)
    elif args.kind == "conjectures":
        from .small_alpha import conjecture_scan

        report = conjecture_scan(args.max_n)
        if args.format == "tsv":
            sys.stdout.write(report.to_tsv())
            return 1 if report.counterexamples else 0
        out = report.to_json_dict()
        code = 1 if report.counterexamples else 0
    else:
        from .product_constructions import product_question_scan

        report = product_question_scan(args.max_n)
        if args.format == "tsv":
            sys.stdout.write(report.to_tsv())
            return 1 if report.gg_violations else 0
        out = {
            "scan": "products", "max_vertices": args.max_n,
            "pairs": len(report.rows),
            "gamma_gamma_violations": report.gg_violations,
            "counterexamples": report.counterexamples,
        }
        code = 1 if report.gg_violations else 0
    _emit(out)
    return code


def _cmd_report(args) -> int:
    from .grid_constructions import grid_density_report

    _check_size(f"the largest grid of --max-mn {args.max_mn}", args.max_mn ** 2)
    sys.stdout.write(grid_density_report(args.max_mn).to_tsv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsets",
        description="Disjoint dominating set pairs with perfect matchings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact swap number of a graph")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=100_000_000)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")

    p = sub.add_parser("tree", help="tree analysis: weight, reduction, flags")
    p.add_argument("graph")

    p = sub.add_parser("construct", help="build a certificate for a family")
    fam = p.add_subparsers(dest="family", required=True)
    sp = fam.add_parser("star-product")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    gr = fam.add_parser("grid")
    gr.add_argument("a", type=int)
    gr.add_argument("b", type=int)
    gr.add_argument("--format", choices=("json", "ascii"), default="json")
    st = fam.add_parser("p3-strip")
    st.add_argument("a", type=int)
    pr = fam.add_parser("product")
    pr.add_argument("g")
    pr.add_argument("h")
    for q in (sp, gr, st, pr):
        q.add_argument("--graph-out")
        q.add_argument("--cert-out")

    p = sub.add_parser("gamma-dp", help="exact grid domination number")
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)

    p = sub.add_parser("scan", help="exhaustive small-graph scans")
    p.add_argument("kind", choices=("alpha2", "alpha3", "conjectures", "products"))
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("report", help="density tables")
    p.add_argument("target", choices=("grid",))
    p.add_argument("--max-mn", type=int, default=12)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "tree": _cmd_tree,
        "construct": _cmd_construct,
        "gamma-dp": _cmd_gamma_dp,
        "scan": _cmd_scan,
        "report": _cmd_report,
    }
    # No command makes cyclic garbage (the searches keep their branches on
    # explicit stacks, not in closures that refer to themselves), so the
    # collector's passes over their graphs would free nothing.
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        for option in ("budget", "max_n", "max_mn"):
            if getattr(args, option, 1) <= 0:
                print(f"error: --{option.replace('_', '-')} must be positive",
                      file=sys.stderr)
                return 2
        return handlers[args.command](args)
    except (GraphParseError, ContractError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    finally:
        if paused:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
