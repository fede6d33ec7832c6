import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import random

import pytest
from hypothesis import given, settings, strategies as st

from swapsets import (
    Graph,
    SwapCertificate,
    dd_m_tree,
    format_graph,
    is_weak_tree,
    path_graph,
    s_weight,
    tree_algorithms,
    verify_certificate,
    weak_reduction,
)
from swapsets import product_constructions, small_alpha
from swapsets.cli import _dumps, load_graph, run
from swapsets.graph_core import ConstructionError
from test_graph_core import CAN_SPLIT, assert_no_child_left, run_serial_and_forked
from test_tree_algorithms import count_walks


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def _random_tree(n: int, weak: bool) -> Graph:
    """A random recursive tree on n vertices; for a weak one, a random tree
    on n - k vertices gets one pendant leaf on each of k vertices that
    include all of its leaves, so no vertex has two leaf neighbors."""
    rng = random.Random(2000)
    if not weak:
        return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
    core = 1200
    edges = [(rng.randrange(v), v) for v in range(1, core)]
    has_child = {u for u, _ in edges}
    leaves = [v for v in range(1, core) if v not in has_child]
    inner = [v for v in range(core) if v in has_child]
    hatted = leaves + rng.sample(inner, n - core - len(leaves))
    edges += [(v, core + i) for i, v in enumerate(sorted(hatted))]
    return Graph(n, edges)


def _is_hat_shape(t: Graph) -> bool:
    """K2, or a tree whose leaves are half its vertices and whose every
    other vertex has exactly one leaf neighbour."""
    leaf = [t.degree(v) == 1 for v in range(t.n)]
    return t.n == 2 or (2 * sum(leaf) == t.n and all(
        leaf[v] or sum(leaf[u] for u in t.neighbors(v)) == 1 for v in range(t.n)))


def _separate_payload(t: Graph) -> dict:
    """The `tree` payload assembled from the separate public functions, with
    each flag taken from its definition: a hat shape, 2 S(T) = n on a weak
    tree, and 2 S(T') = |T'| on the weak reduction T'."""
    weight, partition = s_weight(t)
    weak = is_weak_tree(t)
    red = weak_reduction(t)
    return json.loads(json.dumps({
        "n": t.n,
        "is_weak": weak,
        "s_weight": weight,
        "partition": partition.to_json_dict(),
        "reduction_removed": len(red.removed),
        "result": dd_m_tree(t).to_json_dict(),
        "gamma_equals_alpha": _is_hat_shape(t),
        "alpha_equals_swap_number": weak and 2 * weight == t.n,
        "alpha_equals_eviction": 2 * s_weight(red.reduced)[0] == red.reduced.n,
    }))


class TestLoadGraph:
    def test_generators(self):
        assert load_graph("p5").n == 5
        assert len(load_graph("c6").edges) == 6
        assert load_graph("k1,4").n == 5
        assert load_graph("grid:4x3").n == 12

    def test_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(format_graph(path_graph(4)))
        assert load_graph(str(path)) == path_graph(4)

    @pytest.mark.parametrize("token", ["c0", "c2", "grid:0x3", "grid:3x0"])
    def test_refused_generator_tokens_are_usage_errors(self, capsys, token):
        assert run(["compute", token]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: graph token {token!r}")

    def test_size_checked_before_allocating(self, tmp_path):
        # the child's address space is capped at 1 GiB, so building any of
        # these graphs would end in MemoryError and a traceback instead
        path = tmp_path / "huge.edges"
        path.write_text("10000000000 0\n")
        tokens = ["p10000000000", "c10000000000", "k1,10000000000",
                  "grid:100000x100000", "p2000001", "grid:1415x1414", str(path)]
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from swapsets.cli import run\n"
            "sys.stdout.write(repr([run(['compute', t]) for t in sys.argv[1:]]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *tokens],
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout == repr([2] * len(tokens)), proc.stderr
        assert proc.stderr.count("above the cap of 2000000") == len(tokens)


class TestCompute:
    def test_finite(self, capsys):
        code, obj = run_json(capsys, "compute", "p4")
        assert code == 0 and obj["ddm"] == 2 and obj["status"] == "finite"

    def test_infinite_spelling(self, capsys):
        code, obj = run_json(capsys, "compute", "k1,3")
        assert code == 0 and obj["ddm"] == "infinity"

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "compute", "no-such-file.edges")
        assert code == 2

    def test_oversized_graph_is_budget_error(self, capsys):
        code, _ = run_cli(capsys, "compute", "grid:8x8")
        assert code == 3


class TestVerify:
    def cert_files(self, tmp_path, capsys, *construct_args):
        gpath = tmp_path / "g.edges"
        cpath = tmp_path / "c.json"
        code, _ = run_cli(capsys, "construct", *construct_args,
                          "--graph-out", str(gpath), "--cert-out", str(cpath))
        assert code == 0
        return str(gpath), str(cpath)

    @pytest.mark.parametrize("args", [
        ("star-product", "3", "2"),
        ("star-product", "1", "1"),
        ("grid", "9", "8"),
        ("p3-strip", "4"),
        ("product", "c5", "p3"),
    ])
    def test_construct_then_verify_round_trip(self, tmp_path, capsys, args):
        gpath, cpath = self.cert_files(tmp_path, capsys, *args)
        code, obj = run_json(capsys, "verify", gpath, cpath)
        assert code == 0 and obj["verified"] is True

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        gpath, cpath = self.cert_files(tmp_path, capsys, "star-product", "2", "2")
        with open(cpath) as fh:
            payload = json.load(fh)
        payload["d"] = payload["d"][1:] + [payload["d_prime"][0]]
        with open(cpath, "w") as fh:
            json.dump(payload, fh)
        code, obj = run_json(capsys, "verify", gpath, cpath)
        assert code == 1 and obj["verified"] is False and obj["violations"]

    def test_accepts_wrapped_certificate_object(self, tmp_path, capsys):
        code, out = run_cli(capsys, "construct", "star-product", "2", "1")
        assert code == 0
        payload = json.loads(out)
        gpath = tmp_path / "g.edges"
        cpath = tmp_path / "c.json"
        from swapsets import Graph
        g = Graph(payload["graph"]["n"],
                  [tuple(e) for e in payload["graph"]["edges"]])
        gpath.write_text(format_graph(g))
        cpath.write_text(json.dumps(payload))
        code, obj = run_json(capsys, "verify", str(gpath), str(cpath))
        assert code == 0 and obj["verified"] is True

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        gpath = tmp_path / "g.edges"
        gpath.write_text(format_graph(path_graph(4)))
        cpath = tmp_path / "c.json"
        cpath.write_text("{not json")
        code, _ = run_cli(capsys, "verify", str(gpath), str(cpath))
        assert code == 2


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
_INTS = st.integers() | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
_JSON_LEAVES = (st.none() | st.booleans() | _INTS | st.floats() | _TEXT
                | st.lists(st.tuples(_INTS, _INTS))
                | st.lists(st.lists(_INTS, max_size=4))
                | st.lists(_INTS | st.lists(_INTS, max_size=3)))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.dictionaries(_INTS, inner, max_size=3)),
    max_leaves=20)


class TestJsonWriter:
    """The CLI's writer prints what json.dumps(..., sort_keys=True, indent=2)
    prints, byte for byte."""

    @settings(derandomize=True, max_examples=200)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(_TEXT, min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(
            {key: _INTS | st.lists(_INTS, max_size=3) | st.booleans() | st.none()
             for key in keys}), min_size=1, max_size=5)))
    def test_lists_of_flat_dicts(self, value):
        # the partition parts' shape: dicts sharing their keys, int or int
        # list values, with the odd value that must leave the bulk path
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), [[]], [[1, 2], []], [[1], [2, 3]], [(0, 1), (1, 2)], [[[1]]],
        [1, [2]], [[1], 2], [True, 1], [[True, 1]], [[1.0]], {1: 2, 10: 3, 2: 4},
        {True: 0}, {None: 0}, {1.5: 0}, float("nan"), float("-inf"), 10 ** 30,
        [[-1, 2], [3, -(10 ** 30)]], [[10 ** 30, 0]], [[0, 1], (2, 3), [4, 5]],
        [[1, 2], [3, 4, 5], [6], []], [(1, 2, 3), [4, 5, 6]], [[1, True]], [[1, 2], [3.0, 4]],
        [{"center": 0, "leaves": [1, 2]}, {"center": 3, "leaves": []}],
        [{"b": -1, "a": 10 ** 30}, {"b": 2, "a": 3}], [{"a": [], "b": [1]}, {"a": [2, 3], "b": []}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}], [{"a": 1}, {"b": 1}], [{"a": 1}, {"a": True}],
        [{"a": [1]}, {"a": [False]}], [{"a": 1}, {}], [{}, {}], [{"a": "%d"}], [{"%d": 1}],
        [{"a\u00e9": [1, 2]}], [{1: 2}, {1: 3}], [{"a": [[1]]}], [{"a": (1, 2)}],
    ])
    def test_edge_cases(self, value):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_unserializable_values_raise(self):
        for value in ({(1, 2): 0}, {1, 2}, [object()]):
            with pytest.raises(TypeError):
                _dumps(value)


class TestMalformedInput:
    """Bad input is a usage error (exit 2, `error: ...`), never a traceback
    with exit 1, which means "verification failed"."""

    @pytest.mark.parametrize("certificate", [
        "[1, 2]",
        "5",
        '{"d": [0], "d_prime": [1], "matching": [[0]]}',
        '{"d": [0], "d_prime": [1]}',
        '{"certificate": 5}',
        '{"d": [0.7], "d_prime": ["1"], "matching": [[false, 1.9]]}',
    ])
    def test_malformed_certificate(self, tmp_path, capsys, certificate):
        cpath = tmp_path / "c.json"
        cpath.write_text(certificate)
        self.assert_usage_error(capsys, "verify", "p2", str(cpath))

    @pytest.mark.parametrize("argv", [
        ("compute", "{directory}"),
        ("compute", "{non_utf8}"),
        ("verify", "p3", "{directory}"),
    ])
    def test_unreadable_input(self, tmp_path, capsys, argv):
        non_utf8 = tmp_path / "g.txt"
        non_utf8.write_bytes(b"\xff\xfe 1 0\n")
        self.assert_usage_error(capsys, *(a.format(directory=tmp_path, non_utf8=non_utf8)
                                          for a in argv))

    @pytest.mark.parametrize("argv,kind", [
        (("compute", "{non_utf8}"), "graph"),
        (("verify", "{non_utf8}", "{certificate}"), "graph"),
        (("verify", "p3", "{non_utf8}"), "certificate"),
    ])
    def test_decode_error_names_the_file(self, tmp_path, capsys, argv, kind):
        non_utf8 = tmp_path / "bad.txt"
        non_utf8.write_bytes(b"\xff\xfe 1 0\n")
        certificate = tmp_path / "c.json"
        certificate.write_text('{"d": [0], "d_prime": [1], "matching": [[0, 1]]}')
        err = self.assert_usage_error(capsys, *(a.format(non_utf8=non_utf8, certificate=certificate)
                                                for a in argv))
        assert err.startswith(f"error: {kind} file {str(non_utf8)!r}: ")

    @pytest.mark.parametrize("max_mn", ["-5", "0"])
    def test_non_positive_max_mn(self, capsys, max_mn):
        self.assert_usage_error(capsys, "report", "grid", "--max-mn", max_mn)

    @staticmethod
    def assert_usage_error(capsys, *argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        return captured.err


class TestTree:
    def test_weak_path(self, capsys):
        code, obj = run_json(capsys, "tree", "p6")
        assert code == 0
        assert obj["is_weak"] is True and obj["s_weight"] == 3
        assert obj["result"]["ddm"] == 3
        assert obj["reduction_removed"] == 0

    def test_strong_star(self, capsys):
        code, obj = run_json(capsys, "tree", "k1,3")
        assert code == 0
        assert obj["is_weak"] is False
        assert obj["result"]["ddm"] == "infinity"
        assert obj["alpha_equals_eviction"] is True

    def test_non_tree_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "tree", "c5")
        assert code == 2

    @pytest.mark.parametrize("weak", [True, False])
    def test_one_tree_check_and_reduction(self, capsys, monkeypatch, tmp_path, weak):
        t = _random_tree(2000, weak)
        assert is_weak_tree(t) == weak
        expected = _separate_payload(t)
        path = tmp_path / "t.edges"
        path.write_text(format_graph(t))
        reductions = [0]
        reduce = tree_algorithms._reduce

        def counted(t):
            reductions[0] += 1
            return reduce(t)

        monkeypatch.setattr(tree_algorithms, "_reduce", counted)
        walks = count_walks(monkeypatch)
        code, obj = run_json(capsys, "tree", str(path))
        assert code == 0
        # the walk that checks the tree roots it, and a strong tree's weak
        # reduction is solved on that walk
        assert walks == [t.n]
        assert reductions == [1]
        assert obj == expected


class TestConstruct:
    def test_star_product_payload(self, capsys):
        code, obj = run_json(capsys, "construct", "star-product", "3", "2")
        assert code == 0
        assert obj["size"] == 4
        assert obj["graph"]["n"] == 12

    def test_grid_ascii(self, capsys):
        code, out = run_cli(capsys, "construct", "grid", "8", "8", "--format", "ascii")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 8 and all(len(line) == 8 for line in lines)
        assert set("".join(lines)) <= {"B", "W", "."}

    def test_bad_dimensions_are_usage_errors(self, capsys):
        assert run_cli(capsys, "construct", "grid", "8", "9")[0] == 2
        assert run_cli(capsys, "construct", "p3-strip", "1")[0] == 2
        assert run_cli(capsys, "construct", "star-product", "0", "0")[0] == 2

    def test_size_checked_before_building(self):
        # the child's address space is capped at 1 GiB, so building any of
        # these graphs would end in MemoryError or run for minutes instead
        argvs = [["construct", "grid", "3000", "3000"],
                 ["construct", "p3-strip", "1000000"],
                 ["construct", "star-product", "3000", "3000"],
                 ["construct", "product", "p3000", "p3000"],
                 ["report", "grid", "--max-mn", "100000"]]
        script = (
            "import json, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from swapsets.cli import run\n"
            "sys.stdout.write(repr([run(a) for a in json.loads(sys.argv[1])]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout == repr([2] * len(argvs)), proc.stderr
        assert proc.stderr.count("above the cap of 2000000") == len(argvs)

    def test_product_builds_only_the_host_product(self, capsys, monkeypatch, tmp_path):
        # the tiling runs on spanning trees, but only the host product
        # T x C8 is built and checked
        rng = random.Random(1000)
        path = tmp_path / "t.edges"
        path.write_text(format_graph(Graph(1000, [(rng.randrange(v), v) for v in range(1, 1000)])))
        sizes = []
        original = Graph.__init__

        def counted(self, n, edges):
            sizes.append(n)
            original(self, n, edges)

        monkeypatch.setattr(Graph, "__init__", counted)
        code, obj = run_json(capsys, "construct", "product", str(path), "c8")
        monkeypatch.undo()
        assert code == 0
        assert sizes.count(8000) == 1
        host = Graph(obj["graph"]["n"], obj["graph"]["edges"])
        assert verify_certificate(host, SwapCertificate.from_json_dict(obj["certificate"]))


class TestCertificateChecks:
    @pytest.mark.parametrize("argv", [
        ("construct", "grid", "20", "20"),
        ("construct", "product", "p3", "c4"),
        ("compute", "p6"),
    ])
    def test_each_certificate_is_checked_once(self, capsys, monkeypatch, argv):
        import swapsets.graph_core as graph_core

        calls = []
        real = graph_core.certificate_violations
        monkeypatch.setattr(graph_core, "certificate_violations",
                            lambda g, cert: calls.append(1) or real(g, cert))
        assert run_cli(capsys, *argv)[0] == 0
        assert len(calls) == 1

    def test_failed_check_exits_4_without_a_traceback(self):
        script = (
            "import swapsets.exact_solver as exact_solver\n"
            "from swapsets.cli import main\n"
            "real = exact_solver.lex_least_matching\n"
            "exact_solver.lex_least_matching = (\n"
            "    lambda g, a, b: tuple((v, u) for u, v in real(g, a, b)))\n"
            "main()\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, "compute", "p4"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestGammaDp:
    def test_value(self, capsys):
        code, obj = run_json(capsys, "gamma-dp", "3", "13")
        assert code == 0 and obj["gamma"] == 10

    def test_row_cap_is_usage_error(self, capsys):
        assert run_cli(capsys, "gamma-dp", "9", "5")[0] == 2


class TestScan:
    def test_alpha2_clean(self, capsys):
        code, obj = run_json(capsys, "scan", "alpha2", "--max-n", "5")
        assert code == 0 and obj["failures"] == []

    def test_alpha3_reports_counterexamples(self, capsys):
        code, obj = run_json(capsys, "scan", "alpha3", "--max-n", "6")
        assert code == 1
        assert len(obj["existence_counterexamples"]) == 3
        assert obj["bound_counterexamples"] == []

    def test_alpha3_unverified_certificate_is_an_error(self, capsys, monkeypatch):
        # with no matched partner every graph falls back to the exact
        # solver, whose certificate check then meets a broken matching
        import swapsets.exact_solver as exact_solver
        import swapsets.small_alpha as small_alpha

        real = exact_solver.lex_least_matching
        census = small_alpha.census
        # records without the swap numbers earlier tests cached, so the
        # scan runs the solver on each of them
        monkeypatch.setattr(small_alpha, "census", lambda max_n: [
            small_alpha.CensusRecord(r.graph, r.graph_id) for r in census(max_n)])
        monkeypatch.setattr(small_alpha, "_matched_partner", lambda g, i_set: None)
        monkeypatch.setattr(exact_solver, "lex_least_matching",
                            lambda g, a, b: tuple((v, u) for u, v in real(g, a, b)))
        code = run(["scan", "alpha3", "--max-n", "6"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: constructed certificate fails verification: ")
        assert "matched-vertex-not-in-d:" in captured.err

    def test_conjectures_clean(self, capsys):
        code, obj = run_json(capsys, "scan", "conjectures", "--max-n", "4")
        assert code == 0 and obj["counterexamples"] == []

    def test_conjectures_tsv(self, capsys):
        code, out = run_cli(capsys, "scan", "conjectures", "--max-n", "4",
                            "--format", "tsv")
        assert code == 0 and out.startswith("graph_id\t")

    def test_products_clean(self, capsys):
        code, obj = run_json(capsys, "scan", "products", "--max-n", "8")
        assert code == 0 and obj["gamma_gamma_violations"] == 0

    def test_scan_caps_fail_before_work(self):
        # a fresh process, so no enumeration is cached from earlier tests,
        # and without os.fork, so no labelling runs in a worker the counter
        # cannot see
        script = (
            "import os, sys\n"
            "del os.fork\n"
            "import swapsets.small_alpha as small_alpha\n"
            "from swapsets.cli import run\n"
            "calls = []\n"
            "real = small_alpha._label\n"
            "small_alpha._label = lambda *args: calls.append(1) or real(*args)\n"
            "codes = [run(['scan', kind, '--max-n', '9'])\n"
            "         for kind in ('alpha2', 'alpha3', 'conjectures')]\n"
            "sys.stdout.write(repr((codes, len(calls))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.stdout == repr(([3, 3, 3], 0)), proc.stderr

    def test_negative_budget_is_usage_error(self, capsys):
        assert run_cli(capsys, "scan", "alpha2", "--max-n", "-2")[0] == 2


class TestReport:
    def test_grid_tsv(self, capsys):
        code, out = run_cli(capsys, "report", "grid", "--max-mn", "9")
        assert code == 0
        assert out.startswith("m\tn\td_size")
        assert len(out.rstrip("\n").split("\n")) == 4  # header + (8,8) (9,8) (9,9)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(["--help"]) == 0
        assert run([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("compute", "c8"),
        ("construct", "grid", "10", "8"),
        ("scan", "alpha3", "--max-n", "6"),
        ("report", "grid", "--max-mn", "10"),
    ])
    def test_byte_identical_repeats(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


class TestTwoCores:
    @pytest.mark.parametrize("argv", [
        ("scan", "conjectures", "--max-n", "7", "--format", "tsv"),
        ("scan", "alpha3", "--max-n", "7"),
        ("scan", "products", "--max-n", "15"),
    ])
    def test_forked_and_serial_scans_print_the_same(self, argv):
        body = ("from swapsets.cli import run\n"
                "code = run(sys.argv[2:])\n"
                "sys.stdout.flush()\n"
                "sys.stderr.write(f'exit {code} ')\n")
        runs = run_serial_and_forked(body, *argv)
        assert runs["serial"][0] == runs["forked"][0]
        assert runs["serial"][1].split()[:2] == runs["forked"][1].split()[:2]

    @pytest.mark.parametrize("kind, max_n", [
        ("alpha2", "7"), ("alpha3", "7"), ("conjectures", "7"), ("products", "15")])
    def test_scans_leave_no_child(self, capsys, monkeypatch, kind, max_n):
        # a fresh census cache, so the levels and the solves are split again
        monkeypatch.setattr(small_alpha, "_classes",
                            lru_cache(maxsize=None)(small_alpha._classes.__wrapped__))
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        run_cli(capsys, "scan", kind, "--max-n", max_n)
        assert_no_child_left()
        assert bool(forks) == CAN_SPLIT

    def test_a_failing_product_row_leaves_no_child(self, capfd, monkeypatch):
        # the row fails in both halves, so in the worker too; the parent
        # reports the one error with exit code 4, and no worker is left
        def failing(*args, **kwargs):
            raise ConstructionError("exact solver missed the constructed pair")

        monkeypatch.setattr(product_constructions, "dd_m_exact", failing)
        assert run(["scan", "products", "--max-n", "15"]) == 4
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exact solver missed the constructed pair\n"
        assert_no_child_left()


class TestCollector:
    """Every command runs with the cycle collector off, since none makes
    cyclic garbage: the searches keep their branches on explicit stacks, so
    no closure refers to itself.  run() hands the caller's setting back."""

    @pytest.mark.parametrize("argv", [("tree", "p6"), ("tree", "c5"), ("compute", "p4")])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_callers_setting_is_restored(self, capsys, argv, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, _ = run_cli(capsys, *argv)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert code == (2 if argv[1] == "c5" else 0)

    @pytest.mark.parametrize("command,on", [
        ("tree", False), ("construct", False), ("verify", False), ("report", False),
        ("gamma-dp", False), ("scan", False), ("compute", False),
    ])
    def test_collector_during_each_command(self, capsys, monkeypatch, tmp_path,
                                           command, on):
        argv = {
            "tree": ["tree", "p6"],
            "construct": ["construct", "star-product", "2", "2"],
            "verify": ["verify", "p2", str(tmp_path / "c.json")],
            "report": ["report", "grid", "--max-mn", "8"],
            "gamma-dp": ["gamma-dp", "2", "2"],
            "scan": ["scan", "alpha2", "--max-n", "4"],
            "compute": ["compute", "p4"],
        }[command]
        (tmp_path / "c.json").write_text('{"d": [0], "d_prime": [1], "matching": [[0, 1]]}')
        seen = []
        monkeypatch.setattr(sys.stdout, "write", lambda text: seen.append(gc.isenabled()))
        assert gc.isenabled()
        assert run(argv) == 0
        monkeypatch.undo()
        assert seen and set(seen) == {on}
        assert gc.isenabled()

    @pytest.mark.parametrize("small,large", [
        (["tree", "{tree200}"], ["tree", "{tree2000}"]),
        (["construct", "grid", "10", "10"], ["construct", "grid", "40", "40"]),
        (["construct", "product", "{tree200}", "c4"], ["construct", "product", "{tree2000}", "c4"]),
        (["construct", "p3-strip", "5"], ["construct", "p3-strip", "50"]),
        (["verify", "{grid10}", "{cert10}"], ["verify", "{grid40}", "{cert40}"]),
        (["report", "grid", "--max-mn", "9"], ["report", "grid", "--max-mn", "12"]),
        (["gamma-dp", "3", "5"], ["gamma-dp", "3", "50"]),
        (["scan", "conjectures", "--max-n", "5"], ["scan", "conjectures", "--max-n", "6"]),
        (["scan", "alpha3", "--max-n", "6"], ["scan", "alpha3", "--max-n", "7"]),
        (["scan", "products", "--max-n", "5"], ["scan", "products", "--max-n", "7"]),
        (["compute", "grid:2x3"], ["compute", "grid:4x5"]),
    ])
    def test_no_cyclic_garbage_grows_with_the_input(self, capsys, tmp_path, small, large):
        for n in (200, 2000):
            (tmp_path / f"tree{n}").write_text(format_graph(_random_tree(n, False)))
        for side in (10, 40):
            assert run(["construct", "grid", str(side), str(side),
                        "--graph-out", str(tmp_path / f"grid{side}"),
                        "--cert-out", str(tmp_path / f"cert{side}")]) == 0
        capsys.readouterr()
        names = {name: str(tmp_path / name) for name in
                 ("tree200", "tree2000", "grid10", "cert10", "grid40", "cert40")}
        was = gc.isenabled()
        gc.disable()
        try:
            counts = []
            # scan alpha3 lists the strong graphs it meets as existence
            # counterexamples, so it exits 1
            code = 1 if small[:2] == ["scan", "alpha3"] else 0
            for argv in (small, large):
                gc.collect()
                assert run([a.format(**names) for a in argv]) == code
                capsys.readouterr()
                counts.append(gc.collect())
        finally:
            if was:
                gc.enable()
        assert counts[0] == counts[1]


def run_module(argv, cwd=None):
    """The finished `python -m swapsets.cli` process, run from this source
    tree with PYTHONHASHSEED=0."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, "-m", "swapsets.cli", *argv],
                          capture_output=True, env=env, cwd=cwd, timeout=120)


@pytest.fixture(scope="class")
def scale_items(tmp_path_factory):
    """perfbench's scale items at its default seed, by name, their input
    trees written to a temporary directory.  perfbench/items.py and its
    sibling certcheck are loaded without writing bytecode beside them."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("perfbench_items", bench / "items.py")
        items = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, items)  # its dataclass looks itself up there
        spec.loader.exec_module(items)
        return {item.name: item for item in
                items.scale_items(items.DEFAULT_SEED, tmp_path_factory.mktemp("scale"))}


class TestBenchmarkReference:
    # the seed-independent items of perfbench, and its tree items at the
    # default seed, run as the benchmark runs them; their stdout digests and
    # exit codes are read from its reference

    @staticmethod
    def check(name, argv, cwd=None):
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        expected = json.loads(reference.read_text(encoding="utf-8"))[name]
        proc = run_module(argv, cwd)
        assert proc.returncode == expected["exit"], proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == expected["sha256"]

    @pytest.mark.parametrize("name, argv", [
        ("conjectures-7", ["scan", "conjectures", "--max-n", "7", "--format", "tsv"]),
        ("alpha3-7", ["scan", "alpha3", "--max-n", "7"]),
        ("products-15", ["scan", "products", "--max-n", "15"]),
        ("report-grid-14", ["report", "grid", "--max-mn", "14"]),
        ("grid-50", ["construct", "grid", "50", "50"]),
    ])
    def test_stdout_matches_recorded_digest(self, name, argv):
        self.check(name, argv)

    @pytest.mark.parametrize("name", ["tree-hat-500", "tree-1000", "tree-10000", "tree-30000"])
    def test_tree_stdout_matches_recorded_digest(self, name, scale_items):
        # tree-hat-500 is the only weak tree among them, so the only digest
        # that covers a tree certificate
        self.check(name, scale_items[name].argv)

    def test_grid_files_then_verify_match_recorded_digests(self, tmp_path):
        self.check("grid-200-files", ["construct", "grid", "200", "200", "--graph-out",
                                      "grid.txt", "--cert-out", "grid-cert.json"], tmp_path)
        self.check("verify-grid-200", ["verify", "grid.txt", "grid-cert.json"], tmp_path)


class TestProductScanDigests:
    # stdout digests of the product scan beyond the benchmark's --max-n 15,
    # where the factors reach the census's 8 vertices, recorded while the
    # scan still computed every factor's swap number

    @pytest.mark.parametrize("argv, sha256", [
        (["--format", "tsv"], "6a6f10eb48be4aa27a8135812018dbae293a3eb88bc443cb2e629ba33267fae3"),
        ([], "fb8d09e95646ca4ce5b14337d4425316c3038f5801a68fa4c6f98f1f1282400e"),
    ], ids=["tsv", "json"])
    def test_max_n_18_matches_recorded_digest(self, argv, sha256):
        proc = run_module(["scan", "products", "--max-n", "18", *argv])
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == sha256


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swapsets.cli", "compute", "p4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ddm"] == 2
