"""Checks on the source tree itself rather than on the mathematics."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import numpy as np

from bfgeo import _bulk, cliques, homs, recovery, verify
from bfgeo.fields import Field, enumerate_homs, make_field
from bfgeo.homs import Orientation, random_valid_params, standard_table
from bfgeo.matrices import MatrixSpace, space

ROOT = Path(__file__).resolve().parent.parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so checks with mathematical
    # weight must raise library exceptions instead
    found = []
    for path in sorted((ROOT / "src" / "bfgeo").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _raises(tree):
    """(enclosing function, raised name, line) of every raise in tree."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                out.append((func, getattr(exc, "id", getattr(exc, "attr", None)), child.lineno))
            visit(child, func)

    visit(tree, None)
    return out


def test_size_bounds_come_from_the_shared_helpers():
    # work sized by the user is refused by matrices.bounded (bounded_power
    # calls it) or by _bulk.encode's int64 check, always as DomainTooLarge
    allowed = {("matrices.py", "bounded"), ("_bulk.py", "encode")}
    found = []
    for path in sorted((ROOT / "src" / "bfgeo").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} raise {name}" for func, name, line in _raises(tree)
                  if name == "MemoryError"
                  or (name == "DomainTooLarge" and (path.name, func) not in allowed)]
        found += [f"{path.name}:{node.lineno} BudgetExceeded" for node in ast.walk(tree)
                  if "BudgetExceeded" in (getattr(node, "id", None), getattr(node, "attr", None),
                                          getattr(node, "name", None))]
    assert found == []


def test_field_homomorphisms_are_proven_not_sampled():
    # FieldHom once checked 10^6 random operand pairs above q = 4096; the
    # proof in its place reads every element
    text = (ROOT / "src" / "bfgeo" / "fields.py").read_text()
    assert [w for w in ("random", "default_rng", "_HOM_EXHAUSTIVE_LIMIT") if w in text] == []


def test_maximal_cliques_are_certified_not_searched():
    # a Bron-Kerbosch search once found the maximal cliques again, in
    # exponential worst-case time, and a classifier re-labelled its kinds;
    # the certificate at 0 proves the listed cosets complete instead
    text = "".join(p.read_text() for p in sorted((ROOT / "src" / "bfgeo").glob("*.py")))
    gone = ("bron_kerbosch", "_neighbour_bits", "_clique_kinds")
    assert [w for w in gone if w in text] == []


def test_every_cli_mode_is_checked_by_one_mode_table():
    # lemma-check once checked its options against tables of its own, in a
    # branch of _mode_handler on its command name; every mode now declares
    # what it reads in build_parser, and _mode_handler reads only that
    path = ROOT / "src" / "bfgeo" / "cli.py"
    text = path.read_text()
    gone = ("LEMMA_READS", "LEMMA_DEFAULTS", "_lemma_options", "_RIGIDITY", "cmd_lemma_check")
    assert [w for w in gone if w in text] == []
    handler = next(node for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.FunctionDef) and node.name == "_mode_handler")
    compared = [ast.unparse(node) for node in ast.walk(handler) if isinstance(node, ast.Compare)
                and "args.command" in {ast.unparse(n) for n in [node.left, *node.comparators]}]
    assert compared == []


def test_distances_are_certified_at_0_not_swept_over_pairs(monkeypatch):
    # distance_theorem_check once ran a BFS from every point, through the
    # multi-source bfs_distance_rows, against _pairwise_ranks on all pairs;
    # the certificate at 0 checks the neighbour table on its own right side,
    # from entries and encode, with no code arithmetic
    import bfgeo
    text = "".join(p.read_text() for p in sorted((ROOT / "src" / "bfgeo").glob("*.py")))
    assert "bfs_distance_rows" not in text and "bfs_distance_rows" not in bfgeo.__all__
    tree = ast.parse(textwrap.dedent(inspect.getsource(verify.distance_theorem_check)))
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert "_pairwise_ranks" not in names
    F = make_field(3, 1)
    space(F, 2, 2).neighbor_perms  # built by code_add before the check seals it

    def sealed(*args):
        raise AssertionError("code arithmetic in the distance check")

    for name in ("code_add", "code_sub"):
        monkeypatch.setattr(MatrixSpace, name, sealed)
    assert verify.distance_theorem_check(F, 2, 2)["mismatches"] == []


def test_point_sets_reach_the_clique_test_through_one_front_end():
    # classification, dimension and recovery's axis test once each turned a
    # point set into generators and a dimension their own way, beside two
    # pair scans, one of them unbounded; _adjacent_sets and one blocked
    # _first_torn_pair replace them
    paths = sorted((ROOT / "src" / "bfgeo").glob("*.py"))
    text = "".join(p.read_text() for p in paths)
    gone = ("_clique_host", "_clique_dims", "_check_pairwise_adjacent", "_adjacent_dims")
    assert [w for w in gone if w in text] == []
    callers, scans = set(), []
    for path in paths:
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                scans += [path.stem] * (func.name == "_first_torn_pair")
                callers |= {(path.stem, func.name) for node in ast.walk(func)
                            if isinstance(node, ast.Call)
                            and ast.unparse(node.func) == "_clique_test"}
    assert callers == {("homs", "_summarise_cliques"), ("homs", "is_colouring"),
                       ("cliques", "_adjacent_sets")}
    assert scans == ["cliques"]


def test_pencil_and_line_checks_are_one_bulk_pass_each():
    # Lemma 3.1 once ran a scalar pencil test beside an O(pencil^2) loop over
    # member pairs, and the line check rebuilt each line in its host from
    # inverted transforms; one count and one rank test replace them
    text = "".join(p.read_text() for p in sorted((ROOT / "src" / "bfgeo").glob("*.py")))
    gone = ("two_pencil_constraint", "two_pencil_sweep", "_rebuilt_lines")
    assert [w for w in gone if w in text] == []
    pencil = ast.parse(textwrap.dedent(inspect.getsource(verify.two_pencil_check)))
    nested = [inner.lineno for outer in ast.walk(pencil) if isinstance(outer, ast.For)
              for inner in ast.walk(outer) if isinstance(inner, ast.For) and inner is not outer]
    assert nested == []
    line = ast.parse(textwrap.dedent(inspect.getsource(verify.line_structure_check)))
    calls = [ast.unparse(node.func).split(".")[-1] for node in ast.walk(line)
             if isinstance(node, ast.Call)]
    assert [c for c in calls if c in ("inverse", "complete_to_invertible_col")] == []


def test_the_clique_test_sorts_one_code_per_vector():
    # distinctness was once a lexsort on max(m, n) + 1 keys over every coefficient
    # vector; a per-item sort of one packed code or dense id replaces it
    tree = ast.parse(textwrap.dedent(inspect.getsource(cliques._clique_test)))
    calls = [ast.unparse(node.func).split(".")[-1] for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    assert "lexsort" not in calls and "sort" in calls


def _functions(path):
    """(function name, node) of every function in a source file, nested ones too."""
    return [(f.name, f) for f in ast.walk(ast.parse(path.read_text()))
            if isinstance(f, ast.FunctionDef)]


def test_byte_budgets_become_row_blocks_in_one_function():
    # nine loops once each turned a byte budget into a block step by hand,
    # max(1, BUDGET // row_bytes); matrices._row_blocks is that rule now.
    # The rigidity check's (centre x X) tiling divides its budget over two
    # axes, and stays
    paths, found = sorted((ROOT / "src" / "bfgeo").glob("*.py")), []
    budgets = {t.id for path in paths for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.Assign) for t in node.targets
               if isinstance(t, ast.Name) and (t.id.endswith("_BYTES") or t.id == "_CHUNK")}
    assert len(budgets) >= 7  # the detector sees every budget of this tree
    for path in paths:
        for name, func in _functions(path):
            lefts = {id(node.left) for node in ast.walk(func) if isinstance(node, ast.BinOp)}
            for node in ast.walk(func):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                        and id(node) not in lefts):
                    lead = node
                    while isinstance(lead, ast.BinOp):
                        lead = lead.left
                    if getattr(lead, "id", getattr(lead, "attr", None)) in budgets:
                        found.append(f"{path.stem}.{name}: {ast.unparse(node)}")
    assert sorted(found) == ["grassmann._check_block: _CHUNK // 4 // (cell * xstep)",
                             "grassmann._check_block: _CHUNK // 4 // cell"]


def test_a_whole_space_is_ranked_only_by_its_cached_ranks():
    # the strata, the distance check and the pairwise ranks once each ranked
    # every point of a space; MatrixSpace.ranks is that one pass now
    found = []
    for path in sorted((ROOT / "src" / "bfgeo").glob("*.py")):
        for name, func in _functions(path):
            found += [f"{path.stem}.{name}" for node in ast.walk(func)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) in ("_bulk.rank", "rank")
                      and any("entries" in {getattr(n, "id", getattr(n, "attr", None))
                                            for n in ast.walk(arg)} for arg in node.args)]
    assert found == ["matrices.ranks"]


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_dim_bound_sweep_runs_two_clique_tests_per_table(monkeypatch):
    # each set once took two clique tests of its own, one for the source
    # set and one for its image; a table's sets now share one of each
    F4, F16 = make_field(2, 2), make_field(2, 4)
    calls = counting(monkeypatch, cliques, "_clique_test")
    info = verify.dim_bound_sweep(F4, 2, 2, F16, 3, 3, n_tables=2, n_sets=10, seed=5)
    assert info == {"sets_checked": 20, "violations": []}
    assert len(calls) <= 2 * 2
    assert {P.shape[2] for _, P, _ in calls} == {10}  # (m, n, sets, K) entry planes


def test_recovery_solves_at_most_three_stacks_per_twist_fit(monkeypatch):
    # the two axis fits share one solve when their shapes agree, and the m
    # row-clique fits share another; each fit once took a solve of its own
    F4, F16 = make_field(2, 2), make_field(2, 4)
    rng = np.random.default_rng(31)
    solves, per_fit = counting(monkeypatch, _bulk, "solve_affine"), []
    real = recovery._fit_straight

    def fit(*args):
        before = len(solves)
        try:
            return real(*args)
        finally:
            per_fit.append(len(solves) - before)

    monkeypatch.setattr(recovery, "_fit_straight", fit)
    for m, n in ((2, 2), (3, 2)):
        tbl = standard_table(random_valid_params(rng, F4, m, n, F16, 3, 3))
        assert recovery.recover_standard(tbl).residual_checked
    assert per_fit and max(per_fit) <= 3


def test_the_twist_search_takes_no_determinant_on_rank1_points(monkeypatch):
    # each block of candidate twists once took a determinant stack on the
    # rank-1 points before the one on the whole space; at rank-1 X,
    # det(I + X L) = 1 + tr(X L) leaves that stage a trace product
    dets = counting(monkeypatch, _bulk, "det")
    resolvents = counting(monkeypatch, homs, "_resolvent")
    block, tries, stacks = 16, 400, 0
    for p, k, m, n, k2 in ((2, 2, 2, 2, 4), (3, 1, 2, 3, 2), (2, 1, 5, 1, 2)):
        src, dst = make_field(p, k), make_field(p, k2)
        sp = space(src, m, n)
        points, rank1 = len(sp.entries), len(sp.rank1)
        monkeypatch.setattr(homs, "_TWIST_BLOCK_BYTES", block * points * m * m * 8)
        for tau in enumerate_homs(src, dst):
            for orientation in Orientation:
                for seed in range(3):
                    dets.clear()
                    resolvents.clear()
                    homs._first_valid_twist(np.random.default_rng(seed), tau,
                                            orientation, m, n, tries)
                    assert len(dets) <= len(resolvents) <= -(-tries // block)
                    shapes = [np.shape(args[1]) for args in resolvents + dets]
                    assert all(s[-3] == points != rank1 for s in shapes)
                    assert all(np.shape(args[2])[0] <= block for args in resolvents)
                    stacks += len(dets)
    assert stacks


# numpy's array % divides element by element and branches on the sign,
# 2-18x slower than fields._mod's floor division by one integer; divmod and
# its kin are kept out too, so that every kernel reduces the one way
@pytest.mark.parametrize("kernel", [
    Field.vadd, Field.vsub, Field.vmul, Field._vadd_nocache, _bulk.matmul,
    _bulk.rank_le1_mask, _bulk.decode, MatrixSpace._code_op, MatrixSpace._group_add.func,
], ids=lambda f: f.__qualname__)
def test_odd_characteristic_kernels_reduce_by_floor_division(kernel):
    tree = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
    slow = {"divmod", "remainder", "mod", "fmod"}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(getattr(node, "op", None), ast.Mod)
             or (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in slow)]
    assert found == []


def test_benchmark_selftest_passes():
    # the benchmark binds library names (is_graph_hom in two modules, the
    # rigidity sweeps, MatrixSpace methods); a rename must fail here
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_workload_setups_run(monkeypatch):
    # the selftest never warms a workload's spaces, so a renamed or deleted
    # MatrixSpace attribute that a set-up reads must fail here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        assert isinstance(workload.setup(), dict), name


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    # no other test runs the demos, which call the public API end to end.
    # Their stdout must equal tests/golden/demos/<demo>.txt byte for byte;
    # after a change meant to alter it, rewrite the file with
    # PYTHONPATH=src python demos/<demo>.py > tests/golden/demos/<demo>.txt
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode()
    golden = ROOT / "tests" / "golden" / "demos" / (demo[:-len(".py")] + ".txt")
    assert proc.stdout == golden.read_bytes()


def test_a_maximal_set_is_a_kind_a_direction_and_an_offset():
    # MaximalSet once stored an invertible transform P, inverted it on every
    # construction, and read members through P^-1; a monic direction and
    # the offset give every member, membership and line without an inverse
    text = (ROOT / "src" / "bfgeo" / "cliques.py").read_text()
    gone = ("transform", "_tinv", "_local", "def through", ".through(", "inverse(",
            "complete_to_invertible")
    assert [w for w in gone if w in text] == []
