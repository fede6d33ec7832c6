"""Tests of the benchmark harness, run from the repository root with

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import certcheck  # noqa: E402
import items as workloads  # noqa: E402
import run  # noqa: E402
from swapsets.graph_core import certificate_violations, SwapCertificate  # noqa: E402
from swapsets.grid_constructions import grid_swap_construct  # noqa: E402


@pytest.fixture(scope="module")
def grid_certificate():
    g, cert, _ = grid_swap_construct(10, 8)
    return g, cert.to_json_dict()


def _library_rejects(g, cert: dict) -> bool:
    return bool(certificate_violations(g, SwapCertificate.from_json_dict(cert)))


def test_checker_accepts_a_constructed_certificate(grid_certificate):
    g, cert = grid_certificate
    assert certcheck.certificate_problems(g.n, g.edges, cert) == []


def test_checker_rejects_a_moved_d_vertex(grid_certificate):
    """Move one D vertex to another neighbour of its partner, keeping the
    matching an edge; the checker must agree with the library's verifier on
    every such move, and at least one move breaks domination."""
    g, cert = grid_certificate
    used = set(cert["d"]) | set(cert["d_prime"])
    undominated = 0
    for d, partner in cert["matching"]:
        for v in g.neighbors(partner):
            if v in used:
                continue
            moved = {
                "d": sorted(set(cert["d"]) - {d} | {v}),
                "d_prime": cert["d_prime"],
                "matching": [[v, p] if u == d else [u, p] for u, p in cert["matching"]],
            }
            problems = certcheck.certificate_problems(g.n, g.edges, moved)
            assert bool(problems) == _library_rejects(g, moved), (d, v, problems)
            undominated += "D does not dominate" in problems
    assert undominated > 0


def test_checker_rejects_a_pair_replaced_by_a_non_edge(grid_certificate):
    g, cert = grid_certificate
    d, partner = cert["matching"][0]
    used = set(cert["d"]) | set(cert["d_prime"])
    far = next(v for v in range(g.n) if v not in used and not g.has_edge(d, v))
    broken = {
        "d": cert["d"],
        "d_prime": sorted(set(cert["d_prime"]) - {partner} | {far}),
        "matching": [[d, far]] + cert["matching"][1:],
    }
    assert "matched pair is not an edge" in certcheck.certificate_problems(g.n, g.edges, broken)


def test_killed_child_fails_and_is_charged_the_item_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ITEM_LIMIT_S", 0.5)
    slow = workloads.Item("slow", ["scan", "conjectures", "--max-n", "8"], lambda *_: [])
    p = run.run_pass([slow], tmp_path, 0, workloads.DEFAULT_SEED, False,
                     run_deadline=float("inf"))
    (result,) = p.results
    assert result.run.timed_out and result.run.wall_s < 10
    assert result.failed and "item limit" in result.problems[0]
    assert p.wall_s == 0.5


def test_traced_stdout_is_byte_identical(tmp_path):
    item = workloads.Item("grid-8", ["construct", "grid", "9", "8"], lambda *_: [])
    outputs = []
    for traced in (False, True):
        out = tmp_path / str(traced)
        out.mkdir()
        result = run.run_item(item, out, out, workloads.DEFAULT_SEED, traced)
        assert not result.failed, result.problems
        outputs.append((out / "grid-8.stdout").read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]
    functions = result.trace["functions"]
    assert functions["cli.run"]["calls"] == 1
    assert functions["graph_core.Graph.__init__"]["layer"] == "graph_core"
    assert functions["graph_core.SwapCertificate.to_json_dict"]["layer"] == "serialization"


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    item = workloads.Item("grid-8", ["construct", "grid", "9", "8"], lambda *_: [])
    untraced, traced = (run.run_pass([item], tmp_path, i, workloads.DEFAULT_SEED, flag,
                                     run_deadline=float("inf"))
                        for i, flag in enumerate((False, True)))
    metrics = run.per_layer_metrics([traced], [untraced], probe_failed=0)
    declared = json.loads(run.BENCHMARK.read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert metrics["grid_constructions.calls"] > 0 and metrics["cli.import_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
