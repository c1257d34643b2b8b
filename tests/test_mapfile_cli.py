"""Map-table files, report canonicalization, CLI exit codes."""

import json

import numpy as np
import pytest

from bfgeo.cli import main
from bfgeo.errors import (DomainTooLarge, DuplicateKey, FormatError,
                          IncompleteDomain)
from bfgeo.fields import make_field
from bfgeo.homs import MapTable, build_witness_hom
from bfgeo.mapfile import parse_map_table, write_map_table
from bfgeo.matrices import space
from bfgeo.reports import RunReport, emit_report

F4 = make_field(2, 2)


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
