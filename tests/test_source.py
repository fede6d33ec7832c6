"""Source-level rules for the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import swapsets

PACKAGE_DIR = Path(swapsets.__file__).parent


def test_no_assert_statements():
    """`python -O` strips assert statements, so checks in the library must
    raise explicitly instead."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}"
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, found


def test_census_is_the_only_enumeration():
    """Scans filter `small_alpha.census`, whose records carry the graph ids
    enumeration computed, so no other module enumerates or re-derives ids."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "small_alpha.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("enumerate_connected_graphs", "canonical_id"):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_one_json_writer():
    """Default stdout has one formatter: json.dump and json.dumps are called
    only inside `cli._dumps`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "cli.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_dumps":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_graphs_are_built_only_by_their_constructor():
    """`Graph(n, edges)` is the one checked way to build a graph: outside
    graph_core.py no code calls Graph.__new__, object.__new__ or
    object.__setattr__, which would skip its checks."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "graph_core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr in ("__new__", "__setattr__")
                    and isinstance(func.value, ast.Name) and func.value.id in ("Graph", "object")):
                found.append(f"{path.name}:{node.lineno} {func.value.id}.{func.attr}")
    assert not found, found


def test_bfs_tree_is_the_only_graph_walk():
    """Graph walks go through `graph_core.bfs_tree`: no `while` loop in the
    package calls `.neighbors(`, so no module grows a search of its own."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for loop in ast.walk(tree):
            if isinstance(loop, ast.While):
                found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(loop)
                             if isinstance(node, ast.Call)
                             and isinstance(node.func, ast.Attribute)
                             and node.func.attr == "neighbors")
    assert not found, found


def test_no_recursive_closures():
    """No nested function in the package calls itself.  Such a closure
    refers to itself through its own cell, a reference cycle that only the
    cycle collector frees, and `cli.run` pauses the collector; each call
    also takes a frame, so a deep search meets the recursion limit.  The
    searches (`dominating_sets_lex`, `independence_number`, the matching)
    keep their open branches on explicit stacks instead."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if (inner is not outer and isinstance(inner, ast.FunctionDef)
                        and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                                and node.func.id == inner.name for node in ast.walk(inner))):
                    found.append(f"{path.name}:{inner.lineno} {outer.name}.{inner.name}")
    assert not found, found


def test_no_assertion_errors_raised():
    """Internal failures raise `ConstructionError`, which the CLI reports
    with exit code 4; an `AssertionError` would end in a traceback."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_cli_checks_only_certificate_files():
    """Each builder checks the certificate it returns, so the CLI calls the
    certificate checks only in `_cmd_verify`, on certificate files."""
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_cmd_verify":
            allowed = {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("verify_certificate", "certificate_violations"):
                found.append(f"cli.py:{node.lineno} {name}")
    assert allowed and not found, found


def test_one_small_alpha_construction():
    """Independence numbers 2 and 3 share one partner search: small_alpha.py
    calls `SwapCertificate.build` in exactly one place."""
    tree = ast.parse((PACKAGE_DIR / "small_alpha.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "build"
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "SwapCertificate"]
    assert len(found) == 1, found


def test_one_canonical_labelling():
    """Canonical forms and symmetry have one search: small_alpha.py has one
    `while` loop over a labelling stack, and the function holding it is
    called both by `canonical_form` and by the census generator `_classes`.
    small_alpha.py never names `permutations`, and only that function and
    `_equitable` call the refinement, so `_classes` gets its parents'
    automorphisms only from the labelling search."""
    tree = ast.parse((PACKAGE_DIR / "small_alpha.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    holders = [name for name, func in functions.items() for loop in ast.walk(func)
               if isinstance(loop, ast.While)
               and isinstance(loop.test, ast.Name) and loop.test.id == "stack"]

    def called(name):
        return {node.func.id for node in ast.walk(functions[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    assert len(holders) == 1, holders
    assert holders[0] in called("canonical_form") & called("_classes"), holders
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "permutations"
                or isinstance(node, ast.alias) and node.name == "permutations"]
    refiners = {name for name in functions
                if called(name) & {"_refine", "_equitable"}}
    assert refiners == {holders[0], "_equitable"}, refiners


def test_no_dataclasses():
    """The package declares its classes by hand: importing `dataclasses`
    (which imports `inspect`) and generating each decorated class's methods
    cost about two thirds of the package's import time, which every CLI
    command pays."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}" for module in modules
                         if module.split(".")[0] == "dataclasses")
    assert not found, found


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports `swapsets.cli` has not loaded
    `dataclasses` or `inspect`."""
    script = ("import sys, swapsets.cli\n"
              "sys.stdout.write(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_one_parallel_path():
    """Work is split across processes in one place: `os.fork` is called in
    exactly one function of the package, `graph_core._split_map`."""
    callers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fork" for node in ast.walk(func)):
                callers.append(f"{path.name}:{func.name}")
    assert callers == ["graph_core.py:_split_map"], callers


def test_cli_import_loads_no_pool_machinery():
    """Importing `swapsets.cli` loads none of the process-pool, thread and
    pickling modules; the one parallel path needs only `os` and `marshal`,
    so starting a command costs no more than before."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import swapsets.cli\n"
              "loaded = set(sys.modules) - before\n"
              "pool = {'multiprocessing', 'concurrent.futures', 'threading', 'pickle'}\n"
              "sys.stdout.write(' '.join(sorted(m for m in loaded\n"
              "                                 if m in pool or m.split('.')[0] in pool)))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_the_rooted_walk_is_the_tree_check():
    """A tree is checked by the walk that roots it: in tree_algorithms.py
    `bfs_tree` is called only inside `_rooted`, and neither tree_algorithms.py
    nor product_constructions.py calls `is_tree` or `is_connected`."""
    found = []
    for name in ("tree_algorithms.py", "product_constructions.py"):
        tree = ast.parse((PACKAGE_DIR / name).read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_rooted":
                allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in ("is_tree", "is_connected") or (
                        called == "bfs_tree" and name == "tree_algorithms.py"
                        and id(node) not in allowed):
                    found.append(f"{name}:{node.lineno} {called}")
    assert not found, found


def _calls_outside(path: Path, names: set[str], allowed_functions: set[str]) -> list[str]:
    """Calls of any of names (`f` or `module.f`) in path that lie outside
    the top-level functions allowed_functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {id(n) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in allowed_functions
               for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            called = (f"{func.value.id}.{func.attr}" if isinstance(func, ast.Attribute)
                      and isinstance(func.value, ast.Name) else getattr(func, "id", None))
            if called in names:
                found.append(f"{path.name}:{node.lineno} {called}")
    return found


def test_collector_switched_only_by_the_cli_and_trees_built_in_two_places():
    """The cycle collector is paused and resumed only in `cli.run`, which
    hands the caller's setting back.  `tree_algorithms` solves trees in
    place: it builds a `Graph` only in `weak_reduction` and `hat_graph`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found += _calls_outside(path, {"gc.disable", "gc.enable"},
                                {"run"} if path.name == "cli.py" else set())
    found += _calls_outside(PACKAGE_DIR / "tree_algorithms.py", {"Graph"},
                            {"weak_reduction", "hat_graph"})
    assert not found, found
