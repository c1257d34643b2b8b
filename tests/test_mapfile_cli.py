"""Map-table files, report canonicalization, CLI exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bfgeo import verify
from bfgeo.cli import main
from bfgeo.cliques import VertexSet, classify_clique
from bfgeo.errors import (DomainTooLarge, DuplicateKey, FormatError,
                          IncompleteDomain)
from bfgeo.fields import make_field
from bfgeo.homs import MapTable, build_witness_hom
from bfgeo.mapfile import parse_map_table, write_map_table
from bfgeo.matrices import MINOR_LIMIT, TABLE_LIMIT, MatrixSpace, space
from bfgeo.reports import RunReport, emit_report

F4 = make_field(2, 2)
SRC = Path(__file__).resolve().parents[1] / "src"


def identity_table():
    return MapTable.identity(F4, 2, 2)


def test_mapfile_roundtrip(tmp_path):
    path = tmp_path / "id.bfmap"
    write_map_table(identity_table(), path)
    f = parse_map_table(path)
    assert f == identity_table()


def test_mapfile_comments_and_blanks(tmp_path):
    path = tmp_path / "id.bfmap"
    write_map_table(identity_table(), path)
    lines = path.read_text().splitlines()
    lines.insert(1, "# a comment")
    lines.insert(4, "")
    path.write_text("\n".join(lines) + "\n")
    assert parse_map_table(path) == identity_table()


def test_mapfile_missing_line(tmp_path):
    path = tmp_path / "bad.bfmap"
    write_map_table(identity_table(), path)
    lines = path.read_text().splitlines()
    del lines[10]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IncompleteDomain):
        parse_map_table(path)


def test_mapfile_duplicate_line(tmp_path):
    path = tmp_path / "dup.bfmap"
    write_map_table(identity_table(), path)
    lines = path.read_text().splitlines()
    lines.append(lines[10])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DuplicateKey):
        parse_map_table(path)


def test_mapfile_format_errors(tmp_path):
    path = tmp_path / "bad.bfmap"
    path.write_text("%bfmap 2\n")
    with pytest.raises(FormatError):
        parse_map_table(path)
    path.write_text("%bfmap 1\nsrc 2 2 2\ndst 2 2 2 2\n")
    with pytest.raises(FormatError) as e:
        parse_map_table(path)
    assert e.value.line == 2
    write_map_table(identity_table(), path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace("->", "=>")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as e:
        parse_map_table(path)
    assert e.value.line == 6


def test_report_canonical_and_deterministic():
    r1 = RunReport("demo", {"b": 1, "a": 2}, counts={"z": 1, "y": 2}, seed=7)
    r1.elapsed_ms = 1234
    r2 = RunReport("demo", {"a": 2, "b": 1}, counts={"y": 2, "z": 1}, seed=7)
    r2.elapsed_ms = 9999
    assert emit_report(r1) == emit_report(r2)  # volatile timing excluded
    parsed = json.loads(emit_report(r1))
    assert list(parsed.keys()) == sorted(parsed.keys())


def test_report_emit_to_file(tmp_path):
    path = tmp_path / "r.json"
    r = RunReport("demo", {"x": 1})
    emit_report(r, path)
    assert json.loads(path.read_text())["command"] == "demo"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_field_info(capsys):
    code, rep = run_cli(capsys, "field-info", "--field", "2,2")
    assert code == 0
    assert rep["counts"]["order"] == 4
    assert rep["params"]["modulus"] == "1,1,1"


# a fresh process, so no field or homomorphism is cached yet; as in
# within_a_second, a SIGALRM timer, started after the imports
_FIELD_INFO_5S = """\
import signal, sys
from bfgeo.cli import main
signal.setitimer(signal.ITIMER_REAL, 5.0)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("field,k", [("2,12", 12), ("3,7", 7), ("2,16", 16), ("3,10", 10)])
def test_cli_field_info_on_large_fields_within_five_seconds(field, k):
    # building the tables and proving all k automorphisms took 3-16 s when
    # the homomorphism check ran over all q^2 operand pairs up to q = 4096
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FIELD_INFO_5S, "field-info", "--field", field],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["counts"]["self_homs"] == k
    assert rep["counts"]["order"] == int(field.split(",")[0]) ** k


def test_cli_bfs_check(capsys):
    code, rep = run_cli(capsys, "bfs-check", "--field", "2,1", "--shape", "2x2")
    assert code == 0
    assert rep["counts"]["vertices"] == 16


def test_cli_exists_carries_result_in_counts(capsys):
    code, rep = run_cli(capsys, "exists", "--src", "4:2x3", "--dst", "2:2x2")
    assert code == 0  # a negative existence answer is still a passing run
    assert rep["counts"]["exists"] == 0
    code, rep = run_cli(capsys, "exists", "--src", "2:2x2", "--dst", "2:1x4")
    assert code == 0
    assert rep["counts"]["exists"] == 1


def test_cli_usage_error_exit_2(capsys):
    assert main(["exists", "--src", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["recover", "--map", "/nonexistent/x.bfmap"]) == 2
    capsys.readouterr()


def test_cli_hom_verify_failure_exit_1(tmp_path, capsys):
    bad = MapTable(F4, 2, 2, F4, 2, 2, np.zeros((256, 2, 2), dtype=F4.dtype))
    path = tmp_path / "const.bfmap"
    write_map_table(bad, path)
    code, rep = run_cli(capsys, "hom-verify", "--map", str(path))
    assert code == 1
    assert rep["verdict"] == "fail"


def test_cli_recover_degenerate_exit_1(tmp_path, capsys):
    col = build_witness_hom(4, 2, 2, 4, 2, 2)
    path = tmp_path / "col.bfmap"
    write_map_table(col, path)
    code, rep = run_cli(capsys, "recover", "--map", str(path))
    assert code == 1
    assert rep["params"]["exit"] == "degenerate"


def test_cli_reports_byte_identical_across_runs(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["color", "--field", "2,1", "--shape", "2x2", "--out", str(p1)])
    capsys.readouterr()
    main(["color", "--field", "2,1", "--shape", "2x2", "--out", str(p2)])
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_workers_do_not_change_report(capsys):
    code1, rep1 = run_cli(capsys, "lemma-check", "--which", "4.2",
                          "--e-field", "2,2", "-m", "2", "-n", "2",
                          "-k", "2", "-r", "1")
    code2, rep2 = run_cli(capsys, "--workers", "4", "lemma-check", "--which",
                          "4.2", "--e-field", "2,2", "-m", "2", "-n", "2",
                          "-k", "2", "-r", "1")
    assert (code1, rep1) == (code2, rep2)


def test_cli_sampled_mode_records_seed(tmp_path, capsys):
    path = tmp_path / "id.bfmap"
    write_map_table(identity_table(), path)
    code, rep = run_cli(capsys, "hom-verify", "--map", str(path),
                        "--sample", "200", "--seed", "42")
    assert code == 0
    assert rep["seed"] == 42


def test_mapfile_header_domain_too_large(tmp_path, capsys):
    # the header claims 2^25 points; the file is rejected before any
    # table of that size is allocated
    path = tmp_path / "huge.bfmap"
    path.write_text("%bfmap 1\nsrc 2 1 5 5\ndst 2 1 5 5\n")
    with pytest.raises(DomainTooLarge):
        parse_map_table(path)
    code, rep = run_cli(capsys, "hom-verify", "--map", str(path))
    assert code == 2
    assert rep["verdict"] == "error"
    assert rep["witnesses"][0].startswith("DomainTooLarge:")


def within_a_second(fn):
    signal.signal(signal.SIGALRM, lambda *a: pytest.fail("still running after 1 s"))
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_mapfile_header_huge_prime_rejected_within_a_second(tmp_path, capsys):
    # the header's p is bounded before the trial-division primality test
    path = tmp_path / "bigp.bfmap"
    path.write_text("%bfmap 1\nsrc 1000000000000000003 1 1 1\ndst 2 1 1 1\n0 -> 0\n")
    code, rep = within_a_second(lambda: run_cli(capsys, "hom-verify", "--map", str(path)))
    assert code == 2
    assert rep["verdict"] == "error"
    assert rep["witnesses"][0].startswith("DegreeTooLarge:")


@pytest.mark.parametrize("argv,env", [
    (["--workers", "0"], None), (["--workers", "-3"], None),
    ([], "0"), ([], "two")])
def test_cli_rejects_worker_counts_below_one(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("MATGEO_WORKERS", env)
    code, rep = run_cli(capsys, *argv, "lemma-check", "--which", "4.1",
                        "--e-field", "2,2", "-m", "2", "-n", "2", "-k", "2")
    assert code == 2
    assert rep["verdict"] == "error"
    assert "must be a positive integer" in rep["witnesses"][0]


def test_mapfile_header_point_count_and_shape(tmp_path):
    path = tmp_path / "short.bfmap"
    path.write_text("%bfmap 1\nsrc 2 2 2 2\ndst 2 2 2 2\n0,0;0,0 -> 0,0;0,0\n")
    with pytest.raises(IncompleteDomain, match="256 domain points"):
        parse_map_table(path)
    path.write_text("%bfmap 1\nsrc 2 2 0 2\ndst 2 2 2 2\n")
    with pytest.raises(FormatError) as e:
        parse_map_table(path)
    assert e.value.line == 2


def test_cli_twist_out_of_range_entry_exit_2(tmp_path, capsys):
    path = tmp_path / "w.bfmap"
    write_map_table(build_witness_hom(2, 2, 2, 4, 2, 2), path)
    code, rep = run_cli(capsys, "twist", "--map", str(path), "--twist=-1,0;0,0")
    assert code == 2
    assert rep["verdict"] == "error"
    assert rep["witnesses"][0].startswith("ValueError:")


# argv forms that once crashed with a traceback: a mode's required option
# missing; "{dir}/w.bfmap" is a readable witness table
MISSING_OPTION_ARGV = [
    ["exists"], ["exists", "--src", "4:2x2"], ["exists", "--certificate"],
    ["hom-verify"], ["hom-verify", "--sample", "5"],
    ["hom-verify", "--random-standard", "3"],
    ["twist"], ["twist", "--map", "{dir}/w.bfmap"],
    ["twist", "--identity-sweep", "--field", "2,2"],
    ["recover"], ["recover", "--roundtrip", "2", "--src", "4:2x2"],
    ["recover", "--dim-bound", "100"],
]


@pytest.mark.parametrize("argv", MISSING_OPTION_ARGV, ids=" ".join)
def test_cli_missing_mode_option_exits_2(argv, tmp_path, capsys):
    write_map_table(build_witness_hom(2, 2, 2, 4, 2, 2), tmp_path / "w.bfmap")
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    assert "required" in capsys.readouterr().err


def test_cli_two_modes_at_once_exit_2(capsys):
    assert main(["recover", "--roundtrip", "2", "--dim-bound", "10",
                 "--src", "4:2x2", "--dst", "16:3x3"]) == 2
    assert "choose one of --roundtrip, --dim-bound" in capsys.readouterr().err


def test_cli_subcommand_defaults_stay_local(capsys):
    # lemma-check defaults --field and --shape; bfs-check still requires them
    assert main(["bfs-check", "--shape", "2x2"]) == 2
    assert main(["bfs-check", "--field", "2,2"]) == 2
    capsys.readouterr()


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    code, rep = run_cli(capsys, "field-info", "--field", "2,2",
                        "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert rep["witnesses"][0].startswith("FileNotFoundError:")



def test_a_raised_error_keeps_the_params_the_handler_built(tmp_path, capsys):
    # main once reported every raised error with params {}, so the report
    # did not say which map, field or file had failed
    write_map_table(build_witness_hom(2, 2, 2, 4, 2, 2), tmp_path / "w.bfmap")
    (tmp_path / "bad.bfmap").write_text("not a map table\n")
    runs = {("recover", "--map", str(tmp_path / "w.bfmap")): {"map": "w.bfmap"},
            ("hom-verify", "--map", str(tmp_path / "bad.bfmap")): {"map": "bad.bfmap"},
            ("field-info", "--field", "2,2", "--out", str(tmp_path / "missing" / "r.json")):
                {"field": "2,2", "modulus": "1,1,1"}}
    for argv, params in runs.items():
        code, rep = run_cli(capsys, *argv)
        assert (code, rep["verdict"], rep["params"]) == (2, "error", params), argv
    # an error raised before the handler built its report still names nothing
    code, rep = run_cli(capsys, "bfs-check", "--field", "2,2", "--shape", "0x2")
    assert (code, rep["params"]) == (2, {})

def test_cli_non_positive_shape_exit_2(capsys):
    code, rep = run_cli(capsys, "bfs-check", "--field", "2,2", "--shape", "0x2")
    assert code == 2
    assert "must be two positive integers" in rep["witnesses"][0]


def test_huge_shape_rejected_before_the_power(capsys):
    # 3^(3000*3000) has millions of digits; m*n is bounded first
    code, rep = within_a_second(lambda: run_cli(
        capsys, "bfs-check", "--field", "3,1", "--shape", "3000x3000"))
    assert code == 2
    assert rep["witnesses"][0].startswith("DomainTooLarge:")


def test_mapfile_header_huge_shape_rejected_before_the_power(tmp_path, capsys):
    path = tmp_path / "huge.bfmap"
    path.write_text("%bfmap 1\nsrc 3 1 3000 3000\ndst 2 1 1 1\n")
    code, rep = within_a_second(lambda: run_cli(capsys, "hom-verify", "--map", str(path)))
    assert code == 2
    assert rep["witnesses"][0].startswith("DomainTooLarge:")


@pytest.mark.parametrize("argv", [
    ["recover", "--roundtrip", "-3", "--src", "4:2x2", "--dst", "16:3x3"],
    ["recover", "--dim-bound", "-5", "--src", "4:2x2", "--dst", "16:3x3"],
    ["hom-verify", "--random-standard", "-2", "--src", "4:2x2", "--dst", "16:3x3"],
    ["hom-verify", "--map", "f.bfmap", "--sample", "-1"],
    ["lemma-check", "--which", "5.1", "--sample", "-1"],
    ["lemma-check", "--which", "4.1", "--sample", "0"],
    ["exists", "--grid", "--max-domain", "0"],
    ["exists", "--grid", "--max-domain", "-5"],
], ids=" ".join)
def test_cli_rejects_counts_below_their_minimum(argv, capsys):
    assert main(argv) == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 5, 15, 19])
def test_cli_dim_bound_checks_exactly_the_requested_sets(count, capsys):
    code, rep = run_cli(capsys, "recover", "--dim-bound", str(count),
                        "--src", "4:2x2", "--dst", "16:3x3")
    assert code == 0
    assert rep["params"]["dim_bound"] == count
    assert rep["counts"]["sets_checked"] == count


@pytest.mark.parametrize("command,selector,counts", [
    ("hom-verify", "random_standard", {"nonzero_twist": 0, "transposed": 0, "tuples": 0}),
    ("recover", "roundtrip", {"nonzero_twist": 0, "transposed": 0, "tuples": 0}),
    ("recover", "dim_bound", {"sets_checked": 0}),
])
def test_a_count_selector_of_0_runs_an_empty_sweep(command, selector, counts, capsys):
    # a mode was once selected by its option's truthiness, so a count of 0
    # fell through to --map and was refused as a missing option
    code, rep = run_cli(capsys, command, "--" + selector.replace("_", "-"), "0",
                        "--src", "4:2x2", "--dst", "16:3x3")
    assert (code, rep["verdict"], rep["counts"]) == (0, "pass", counts)
    assert rep["params"][selector] == 0


@pytest.mark.parametrize("argv", [
    ["twist", "--identity-sweep", "--field", "2,2", "--shape", "3x3"],
    ["bfs-check", "--field", "2,2", "--shape", "3x3"],
], ids=" ".join)
def test_pairwise_sweeps_rejected_before_allocating(argv, capsys):
    # 4^9 matrices: the space fits, but not the twist sweep's 2^36 pairs nor
    # the BFS's 1323 x 4^9 neighbour table
    code, rep = within_a_second(lambda: run_cli(capsys, *argv))
    assert code == 2
    assert rep["witnesses"][0].startswith("DomainTooLarge:")


@pytest.mark.parametrize("field,shape,edges", [("2,3", "2x2", 1161216), ("3,1", "2x4", 1049760)])
def test_bfs_check_on_spaces_past_the_old_pair_bound_within_a_second(field, shape, edges, capsys):
    # 4096 and 6561 points: bfs-check once refused their 2^24 and 3^16
    # pairs; the certificate at 0 needs one neighbour table within TABLE_LIMIT
    code, rep = within_a_second(lambda: run_cli(capsys, "bfs-check", "--field", field,
                                                "--shape", shape))
    assert code == 0
    assert rep["counts"]["edges"] == edges


def test_bfs_check_on_a_1x20_space_refused_before_its_increments(capsys, monkeypatch):
    # its 2^20 - 1 increments, 168 MB of int64 codes, were once built before
    # the table bound refused the table they fill; the closed form comes first
    sp = MatrixSpace(make_field(2, 1), 1, 20)
    monkeypatch.setattr(verify, "space", lambda *a: sp)
    code, rep = within_a_second(lambda: run_cli(capsys, "bfs-check", "--field", "2,1",
                                                "--shape", "1x20"))
    assert code == 2
    assert rep["witnesses"] == ["DomainTooLarge: the 1048575 x 1048576 neighbour table of "
                                f"GF(2)^(1x20) exceeds the table bound of {TABLE_LIMIT} entries"]
    assert "rank1" not in vars(sp)


def test_lemma_5_1_honours_the_target_shape(capsys):
    # 5.1 once took its target shape from the source and checked 3x3 -> 3x3
    code, rep = run_cli(capsys, "lemma-check", "--which", "5.1", "--src", "4:3x3",
                        "--dst", "4:2x2", "--sample", "1")
    assert code == 2
    assert rep["witnesses"] == ["InvalidParams: target too small for either form: "
                                "3x3 source, 2x2 target"]


def test_lemma_5_1_params_name_both_spaces_and_the_sample(capsys):
    # 5.1 once reported only the two fields, so these targets read alike
    params = [run_cli(capsys, "lemma-check", "--which", "5.1", "--src", "4:2x2",
                      "--dst", dst, "--sample", "2")[1]["params"] for dst in ("16:2x2", "16:3x3")]
    assert params[0] != params[1]
    assert params[1] == {"which": "5.1", "src": "4:2x2", "dst": "16:3x3", "sample": 2}
    # --dst defaults to --src, and --sample to 20
    code, rep = run_cli(capsys, "lemma-check", "--which", "5.1", "--src", "4:2x2")
    assert code == 0
    assert rep["params"] == {"which": "5.1", "src": "4:2x2", "dst": "4:2x2", "sample": 20}


def _twenty(prefix):
    return [f"{prefix} {i:02d}" for i in range(20)]


def test_truncated_witness_lists_carry_their_total(capsys, monkeypatch):
    import bfgeo.cli as cli
    rigidity = {"params": {"sampled": False}, "strata_checked": 1, "vacuous": [],
                "branch_counts": {"y_eq_xa": 0, "y_zero": 0},
                "counterexamples": _twenty("ce")}
    monkeypatch.setattr(cli, "check_rigidity_top", lambda *a, **kw: rigidity)
    code, rep = run_cli(capsys, "lemma-check", "--which", "4.1")
    assert code == 1
    assert rep["counts"]["witnesses_total"] == 20
    assert rep["witnesses"] == _twenty("ce")[:16]

    monkeypatch.setitem(cli.SWEEPS, "bfs-check",
                        lambda F, m, n: {"vertices": 16, "mismatches": _twenty("mm")})
    code, rep = run_cli(capsys, "bfs-check", "--field", "2,1", "--shape", "2x2")
    assert code == 1
    assert rep["counts"] == {"vertices": 16, "witnesses_total": 20}
    assert rep["witnesses"] == _twenty("mm")[:16]

    # a list within the limit is kept whole, without a total
    monkeypatch.setitem(cli.SWEEPS, "bfs-check",
                        lambda F, m, n: {"vertices": 16, "mismatches": _twenty("mm")[:16]})
    code, rep = run_cli(capsys, "bfs-check", "--field", "2,1", "--shape", "2x2")
    assert rep["counts"] == {"vertices": 16}
    assert len(rep["witnesses"]) == 16


@pytest.mark.parametrize("argv", [
    ["hom-verify", "--random-standard", "2"],
    ["recover", "--roundtrip", "2"],
    ["recover", "--dim-bound", "2"],
], ids=" ".join)
def test_cli_target_too_small_for_either_form_exit_2(argv, capsys):
    # a 2x3 source fits a 2x2 target in neither orientation
    code, rep = run_cli(capsys, *argv, "--src", "4:2x3", "--dst", "16:2x2")
    assert code == 2
    assert rep["witnesses"] == ["InvalidParams: target too small for either form: "
                                "2x3 source, 2x2 target"]


@pytest.mark.parametrize("which", ["4.1", "4.2", "4.3", "4.4"])
@pytest.mark.parametrize("d_field", ["3,1", "2,3"])
def test_lemma_check_without_an_embedding_exits_2(which, d_field, capsys):
    # GF(4) embeds in neither GF(3) nor GF(8)
    code, rep = run_cli(capsys, "lemma-check", "--which", which,
                        "--e-field", "2,2", "--d-field", d_field)
    assert code == 2
    assert rep["witnesses"] == ["ValueError: no field homomorphism between these fields"]


@pytest.mark.parametrize("argv", [
    ["clique-classify", "--field", "2,1", "--shape", "4x4"],
    ["exists", "--src", "4:4x4", "--dst", "2:4x4", "--certificate"],
    ["line-check", "--field", "2,1", "--shape", "3x4"],
    ["line-check", "--field", "2,1", "--shape", "4x4"],
], ids=" ".join)
def test_clique_and_line_sweeps_past_their_bounds_exit_2(argv, capsys):
    # 2^16 points are past the clique number; 3x4 has 1792 x 7680 ONE x TWO pairs
    code, rep = within_a_second(lambda: run_cli(capsys, *argv))
    assert code == 2
    assert rep["witnesses"][0].startswith("DomainTooLarge:")


@pytest.mark.parametrize("shape", ["1x2", "1x3", "3x1"])
@pytest.mark.parametrize("argv", [["clique-classify"], ["line-check"],
                                  ["lemma-check", "--which", "3.1"]], ids=" ".join)
def test_clique_sweeps_on_a_single_clique_exit_2(argv, shape, capsys):
    # GF(3)^(1x2) is one complete graph: clique-classify reported every
    # edge as torn, line-check passed with 336 "lines" on GF(4)^(1x3), and
    # the pencil rows = cols = [0] is not proper when min(m, n) = 1
    code, rep = run_cli(capsys, *argv, "--field", "3,1", "--shape", shape)
    assert code == 2
    assert rep["witnesses"] == [f"PreconditionViolated: need m, n >= 2: GF(3)^({shape}) "
                                "is one clique"]


@pytest.mark.parametrize("src", ["4:1x2", "4:2x1"])
@pytest.mark.parametrize("argv", [["hom-verify", "--random-standard", "3"],
                                  ["lemma-check", "--which", "5.1"],
                                  ["recover", "--roundtrip", "2"],
                                  ["recover", "--dim-bound", "2"]], ids=" ".join)
def test_standard_sweeps_from_a_single_clique_exit_2(argv, src, capsys):
    # from GF(4)^(1x2) hom-verify and lemma-check reported every tuple as
    # degenerate, recover --roundtrip raised Degenerate and recover
    # --dim-bound passed its sets: one complete graph has no two-clique
    # cover to miss
    code, rep = run_cli(capsys, *argv, "--src", src, "--dst", "16:1x2")
    assert code == 2
    shape = src.split(":")[1]
    assert rep["witnesses"] == [f"PreconditionViolated: need m, n >= 2: GF(4)^({shape}) "
                                "is one clique"]


@pytest.mark.parametrize("argv,sizes", [
    (["hom-verify", "--random-standard", "1", "--src", "4:2x2", "--dst", "4:100000x100000"],
     "4^4 images of shape 100000x100000"),
    (["witness-hom", "--src", "2:2x2", "--dst", "2:100000x100000"],
     "2^4 images of shape 100000x100000"),
    (["hom-verify", "--random-standard", "1", "--src", "2:1x1", "--dst", "2:100000x1"],
     "2^1 images of shape 100000x1"),
], ids=["hom-verify 100000x100000", "witness-hom 100000x100000", "hom-verify 100000x1"])
def test_huge_target_shapes_exit_2_before_any_table(argv, sizes, capsys):
    # --dst bounds the field, not m'n': the tables (or the 100000 x 100000
    # factor P) were allocated and failed with a MemoryError traceback
    code, rep = within_a_second(lambda: run_cli(capsys, *argv))
    assert code == 2
    assert rep["witnesses"] == [f"DomainTooLarge: a table of {sizes} exceeds the table "
                                "bound of 16777216 entries"]


def test_clique_search_bound_names_the_exponent(capsys):
    code, rep = run_cli(capsys, "exists", "--src", "4:4x4", "--dst", "2:4x4", "--certificate")
    assert rep["witnesses"] == ["DomainTooLarge: q^(m*n) = 2^16 exceeds the "
                                "clique-number bound 4096"]


@pytest.mark.parametrize("m", [60, 90, 20000])
def test_rigidity_x_space_bounded_before_the_power(m, capsys):
    # 4^(m*m) has thousands of digits at m = 60; m*m is bounded first
    code, rep = within_a_second(lambda: run_cli(
        capsys, "lemma-check", "--which", "4.1", "-m", str(m), "-n", "2"))
    assert code == 2
    assert rep["witnesses"] == [f"DomainTooLarge: q^(m*n) = 4^{m * m} exceeds the "
                                "enumeration bound 1048576"]


def test_certificate_on_a_complete_graph_target(capsys):
    # GF(2)^(1x10) is one 1024-clique (a clique search once raised
    # RecursionError going 1024 deep)
    code, rep = run_cli(capsys, "exists", "--src", "2:1x11", "--dst", "2:1x10", "--certificate")
    assert code == 0
    assert rep["counts"]["target_clique_number"] == 1024


def test_certificate_on_a_4096_point_grid_target_within_a_second(capsys):
    # GF(2) 2x6 has 4096 points and 64 704 maximal cliques; a Bron-Kerbosch
    # search for its clique number took 11 s
    code, rep = within_a_second(lambda: run_cli(
        capsys, "exists", "--src", "2:2x7", "--dst", "2:2x6", "--certificate"))
    assert code == 0
    assert rep["counts"]["target_clique_number"] == 64


# every size string and numeric option at 0, -1, 10^5 and just past its
# bound: GF(2) 1x21 passes SPACE_LIMIT, 1x13 the clique number, a 2048x2048
# target TABLE_LIMIT (from a 2x2 source) or MINOR_LIMIT (from a 1x1 one, and
# 16x17 is just inside it), -m 4 -n 4 the GF(4) X-space, --cols 4 GF(4)^(3x4)
_SHAPES = ["0x2", "-1x2", "100000x100000", "1x21"]
_SPACES = ["2:0x2", "2:-1x2", "2:100000x100000", "0:2x2", "-1:2x2", "100000:2x2", "2:1x21"]
_VALUES = ["0", "-1", "100000"]


def _pair_commands(pair):
    return [["exists", *pair], ["exists", *pair, "--certificate"], ["witness-hom", *pair],
            ["hom-verify", "--random-standard", "1", *pair],
            ["recover", "--roundtrip", "1", *pair], ["recover", "--dim-bound", "1", *pair],
            ["lemma-check", "--which", "5.1", "--sample", "1", *pair]]


def _bound_cases():
    cases = [[cmd, "--field", "2,1", f"--shape={s}"] for s in _SHAPES
             for cmd in ("bfs-check", "clique-classify", "line-check", "color")]
    cases += [argv + [f"--shape={s}"] for s in _SHAPES
              for argv in (["twist", "--identity-sweep", "--field", "2,1"],
                           ["lemma-check", "--which", "3.1", "--field", "2,1"])]
    # a source goes with a target that holds it, so no case is a plain "no"
    for s in _SPACES:
        cases += _pair_commands([f"--src={s}", "--dst=2:100000x100000"])
        cases += _pair_commands(["--src=4:2x2", f"--dst={s}"])
    cases += _pair_commands(["--src=4:2x2", "--dst=4:2048x2048"])
    cases += [[*argv, "--src=2:1x1", f"--dst=4:{s}"] for s in ("2048x2048", "16x17")
              for argv in (["witness-hom"], ["recover", "--dim-bound", "1"])]
    cases += [["exists", "--src=2:1x14", "--dst=2:1x13", "--certificate"],
              ["clique-classify", "--field", "2,1", "--shape=2x7"]]
    cases += [["lemma-check", "--which", w, opt, v] for w in ("4.1", "4.2", "4.3", "4.4")
              for opt in ("-m", "-n", "-k", "-r") for v in _VALUES]
    cases += [["lemma-check", "--which", w, "-m", "4", "-n", "4"]
              for w in ("4.1", "4.2", "4.3", "4.4")]
    cases += [["xi-demo", "--cols", v] for v in _VALUES + ["4"]]
    cases += [argv + ["--seed", v] for v in _VALUES for argv in (
        ["hom-verify", "--map", "MAP", "--sample", "10"],
        ["hom-verify", "--random-standard", "1", "--src", "4:2x2", "--dst", "16:3x3"],
        ["recover", "--roundtrip", "1", "--src", "4:2x2", "--dst", "16:3x3"],
        ["recover", "--dim-bound", "1", "--src", "4:2x2", "--dst", "16:3x3"],
        ["lemma-check", "--which", "4.1", "--sample", "1"],
        ["lemma-check", "--which", "5.1", "--sample", "1"])]
    cases += [["hom-verify", "--map", "MAP", "--sample", v] for v in _VALUES + ["1048577"]]
    cases += [["lemma-check", "--which", "4.1", "--sample", v] for v in _VALUES]
    cases += [["exists", "--grid", "--max-domain", v] for v in _VALUES]
    # a large work count is work asked for, run in flat memory: 0 and -1 only
    cases += [argv + [v] for v in ("0", "-1") for argv in (
        ["hom-verify", "--src", "4:2x2", "--dst", "16:3x3", "--random-standard"],
        ["recover", "--src", "4:2x2", "--dst", "16:3x3", "--roundtrip"],
        ["recover", "--src", "4:2x2", "--dst", "16:3x3", "--dim-bound"],
        ["lemma-check", "--which", "5.1", "--sample"])]
    return cases


@pytest.mark.parametrize("argv", _bound_cases(), ids=" ".join)
def test_sizes_and_counts_exit_0_or_2_within_a_second(argv, tmp_path, capsys):
    path = tmp_path / "id.bfmap"
    write_map_table(identity_table(), path)
    argv = [str(path) if a == "MAP" else a for a in argv]
    code = within_a_second(lambda: main(argv))
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in out + err


# a child process under a 1.5 GB address-space cap, so a table that grows
# with the space fails there with MemoryError rather than filling the host;
# the script's imports come first, then a 1 s timer before the call
_CAPPED = """\
import resource, signal, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
{imports}
signal.setitimer(signal.ITIMER_REAL, 1.0)
{call}
"""
_CAPPED_CLI = _CAPPED.format(imports="from bfgeo.cli import main",
                             call="sys.exit(main(sys.argv[1:]))")
_CAPPED_BFS = _CAPPED.format(
    imports="from bfgeo.fields import make_field\nfrom bfgeo.matrices import Mat, bfs_distances",
    call="bfs_distances(Mat.zeros(make_field(2, 1), 2, 10))")


def run_capped(script, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("shape", ["2x10", "4x5"])
def test_color_past_its_edge_bound_exits_2_under_a_memory_cap(shape):
    # GF(2)^(2x10) is exactly SPACE_LIMIT points; its 1.6e9 edges (2.4e8 at
    # 4x5) once went through a (3069, 2^20) int64 neighbour table, 24.0 GiB
    proc = run_capped(_CAPPED_CLI, "color", "--field", "2,1", f"--shape={shape}")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["witnesses"] == [
        f"DomainTooLarge: the edge count of GF(2)^({shape}) exceeds the edge bound {TABLE_LIMIT}"]


def test_bfs_past_the_table_bound_raises_domain_too_large_under_a_memory_cap():
    # the same (3069, 2^20) neighbour table, built by the public BFS with no
    # CLI pair bound in front of it, once raised a 24.0 GiB MemoryError
    proc = run_capped(_CAPPED_BFS)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().splitlines()[-1] == (
        "bfgeo.errors.DomainTooLarge: the 3069 x 1048576 neighbour table of GF(2)^(2x10) "
        f"exceeds the table bound of {TABLE_LIMIT} entries")


@pytest.mark.parametrize("argv,named", [
    (["exists", "--src", "3:1x1", "--dst", "65521:1000000x1"], "65521^1000000"),
    (["exists", "--src", "65521:1x10000000", "--dst", "3:1x1"], "65521^10000000"),
    (["exists", "--src", "2:100000x2", "--dst", "2:2x2", "--certificate"], "2^100000"),
    (["hom-verify", "--map", "MAP", "--sample", "1000000000000"], "1000000000000"),
    (["witness-hom", "--src", "2:1x1", "--dst", "4:2048x2048"], "minor count of a 2048x2048"),
], ids=["exists target power", "exists source power", "certificate source clique",
        "sample count", "2x2 minors"])
def test_user_sized_work_is_refused_before_it_starts(argv, named, tmp_path, capsys):
    # these took 4.6 s or more, printed a clique too long for a report,
    # asked numpy for 7.28 TiB of draws, or took C(2048, 2)^2 2x2 minors of
    # a 2-point table within the table bound
    path = tmp_path / "id.bfmap"
    write_map_table(identity_table(), path)
    argv = [str(path) if a == "MAP" else a for a in argv]
    code, rep = within_a_second(lambda: run_cli(capsys, *argv))
    assert code == 2
    assert rep["witnesses"][0].startswith("DomainTooLarge:")
    assert named in rep["witnesses"][0]


def test_a_table_past_the_minor_bound_is_refused_when_built():
    images = np.zeros((2, 17, 17), dtype=np.uint8)
    with pytest.raises(DomainTooLarge, match=f"minor bound {MINOR_LIMIT}"):
        MapTable(make_field(2, 1), 1, 1, make_field(2, 2), 17, 17, images)
    MapTable(make_field(2, 1), 1, 1, make_field(2, 2), 16, 17, images[:, :16])


UNREAD_OPTION_RUNS = [
    (["lemma-check", "--which", "3.1", "-m", "100000"], "lemma-check --which 3.1 does not read -m"),
    (["lemma-check", "--which", "4.1", "-r", "-1"], "lemma-check --which 4.1 does not read -r"),
    (["lemma-check", "--which", "5.1", "--field", "2,2", "-k", "3"], "does not read --field, -k"),
    (["lemma-check", "--which", "4.2", "--src", "4:2x2", "--shape", "2x2"],
     "does not read --shape, --src"),
    # these ran their mode with params that did not name the option
    (["exists", "--grid", "--dst", "2:2x2", "--certificate"],
     "exists --grid does not read --dst, --certificate"),
    (["exists", "--src", "4:2x2", "--dst", "16:2x2", "--max-domain", "4"],
     "exists --src does not read --max-domain"),
    (["twist", "--identity-sweep", "--field", "2,2", "--shape", "2x2", "--side", "right",
      "--twist", "1"], "twist --identity-sweep does not read --twist, --side"),
    (["hom-verify", "--random-standard", "2", "--src", "4:2x2", "--dst", "16:3x3",
      "--sample", "5"], "hom-verify --random-standard does not read --sample"),
    (["recover", "--map", "{dir}/w.bfmap", "--seed", "3"], "recover --map does not read --seed"),
    (["lemma-check", "--which", "3.1", "--seed", "4"], "lemma-check --which 3.1 does not read --seed"),
]


@pytest.mark.parametrize("argv,unread", UNREAD_OPTION_RUNS,
                         ids=[" ".join(argv) for argv, _ in UNREAD_OPTION_RUNS])
def test_every_subcommand_refuses_options_its_mode_does_not_read(argv, unread, tmp_path, capsys):
    write_map_table(build_witness_hom(2, 2, 2, 4, 2, 2), tmp_path / "w.bfmap")
    assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == 2
    assert unread in capsys.readouterr().err


@pytest.mark.parametrize("build", [
    lambda: MapTable(make_field(2, 1), 300, 300, make_field(2, 1), 1, 1, np.zeros((2, 1, 1))),
    lambda: classify_clique(VertexSet(make_field(2, 1), 1, 25, [0, 1])),
], ids=["MapTable 300x300", "classify_clique 1x25"])
def test_api_sizes_are_refused_before_the_power(build):
    # a ValueError from formatting 2^90000, and a bare MemoryError, before
    with pytest.raises(DomainTooLarge, match=r"q\^\(m\*n\) = 2\^"):
        within_a_second(build)
