"""Golden CLI reports: every README command, byte for byte.

Each command runs in-process through ``cli.main``; its stdout must equal
the committed file under ``tests/golden/``.  Commands that read a map file
run on tables written here: a standard-form table, a 1 x n table for the
semi-affine fit, a constant table, the standard table with one image
torn, and the tables ``witness-hom --table-out`` and ``xi-demo
--table-out`` write.

After a change that is meant to alter a report, rewrite the files with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bfgeo.cli import build_parser, main
from bfgeo.fields import make_field
from bfgeo.homs import MapTable, Orientation, random_valid_params, standard_table
from bfgeo.mapfile import write_map_table

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; "{dir}" stands for the directory holding the map files
COMMANDS = {
    "field-info": ["field-info", "--field", "2,2"],
    "bfs-check": ["bfs-check", "--field", "2,2", "--shape", "2x2"],
    "clique-classify": ["clique-classify", "--field", "2,2", "--shape", "2x2"],
    "line-check": ["line-check", "--field", "2,2", "--shape", "2x2"],
    "exists-certificate": ["exists", "--src", "4:2x3", "--dst", "2:2x2",
                           "--certificate"],
    "exists-grid": ["exists", "--grid"],
    "exists-positive": ["exists", "--src", "4:2x2", "--dst", "16:2x2"],
    "color": ["color", "--field", "2,2", "--shape", "2x2"],
    "witness-hom": ["witness-hom", "--src", "2:2x2", "--dst", "4:2x2"],
    "hom-verify-witness": ["hom-verify", "--map", "{dir}/w.bfmap"],
    "hom-verify-xi": ["hom-verify", "--map", "{dir}/xi.bfmap"],
    "hom-verify-standard": ["hom-verify", "--map", "{dir}/f.bfmap"],
    "hom-verify-sampled": ["hom-verify", "--map", "{dir}/f.bfmap",
                           "--sample", "500", "--seed", "7"],
    "hom-verify-random-standard": ["hom-verify", "--random-standard", "40",
                                   "--src", "4:2x2", "--dst", "16:3x3"],
    "degeneracy-check-witness": ["degeneracy-check", "--map", "{dir}/w.bfmap"],
    "degeneracy-check-xi": ["degeneracy-check", "--map", "{dir}/xi.bfmap"],
    "degeneracy-check-standard": ["degeneracy-check", "--map", "{dir}/f.bfmap"],
    "degeneracy-check-constant": ["degeneracy-check", "--map", "{dir}/const.bfmap"],
    "degeneracy-check-torn": ["degeneracy-check", "--map", "{dir}/torn.bfmap"],
    "xi-demo": ["xi-demo", "--src-field", "2,2", "--dst-field", "2,4", "--cols", "2"],
    "twist-identity-sweep": ["twist", "--identity-sweep", "--field", "2,2",
                             "--shape", "2x2"],
    "twist-witness-left": ["twist", "--map", "{dir}/w.bfmap",
                           "--twist", "0,0;0,0", "--side", "left"],
    "twist-witness-right": ["twist", "--map", "{dir}/w.bfmap",
                            "--twist", "1,0;0,0", "--side", "right"],
    "twist-standard-right": ["twist", "--map", "{dir}/f.bfmap",
                             "--twist", "0,0,0;0,0,0;0,0,0", "--side", "right"],
    "twist-standard-singular-left": ["twist", "--map", "{dir}/f.bfmap",
                                     "--twist", "1,1,1;1,1,1;1,1,1",
                                     "--side", "left"],
    "twist-standard-singular-right": ["twist", "--map", "{dir}/f.bfmap",
                                      "--twist", "2,0,0;0,0,0;0,0,0",
                                      "--side", "right"],
    "lemma-check-3.1": ["lemma-check", "--which", "3.1", "--field", "2,2",
                        "--shape", "2x2"],
    "lemma-check-4.1": ["lemma-check", "--which", "4.1", "--e-field", "2,2",
                        "-m", "2", "-n", "2", "-k", "2"],
    "lemma-check-4.2": ["lemma-check", "--which", "4.2", "--e-field", "2,2",
                        "-m", "2", "-n", "2", "-k", "2", "-r", "1"],
    "lemma-check-4.3": ["lemma-check", "--which", "4.3", "--e-field", "2,2",
                        "-m", "2", "-n", "2", "-k", "2"],
    "lemma-check-4.4": ["lemma-check", "--which", "4.4", "--e-field", "2,2",
                        "-m", "2", "-n", "2", "-k", "2", "-r", "1"],
    "lemma-check-5.1": ["lemma-check", "--which", "5.1", "--src", "4:2x2",
                        "--dst", "16:2x2"],
    "fit-semiaffine": ["fit-semiaffine", "--map", "{dir}/g.bfmap"],
    "fit-semiaffine-wrong-shape": ["fit-semiaffine", "--map", "{dir}/w.bfmap"],
    "recover-standard": ["recover", "--map", "{dir}/f.bfmap",
                         "--out", "{dir}/report.json"],
    "recover-witness": ["recover", "--map", "{dir}/w.bfmap"],
    "recover-xi": ["recover", "--map", "{dir}/xi.bfmap"],
    "recover-roundtrip": ["recover", "--roundtrip", "20", "--src", "4:2x2",
                          "--dst", "16:3x3"],
    "recover-dim-bound": ["recover", "--dim-bound", "100", "--src", "4:2x2",
                          "--dst", "16:3x3"],
}


def run(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def write_tables(directory: Path):
    """The map files the commands read, written deterministically."""
    F2, F4, F16 = make_field(2, 1), make_field(2, 2), make_field(2, 4)
    rng = np.random.default_rng(2024)
    f = standard_table(random_valid_params(rng, F4, 2, 2, F16, 3, 3, Orientation.STRAIGHT))
    write_map_table(f, directory / "f.bfmap")
    g = random_valid_params(rng, F4, 1, 2, F16, 1, 3, Orientation.STRAIGHT)
    write_map_table(standard_table(g), directory / "g.bfmap")
    # a constant table collapses every ball; a rank-2 image next to f(0) tears one
    write_map_table(MapTable(F2, 2, 2, F4, 2, 2, np.zeros((16, 2, 2), dtype=F4.dtype)),
                    directory / "const.bfmap")
    torn = f.images.copy()
    torn[1] = F16.vadd(torn[0], np.diag([1, 1, 0]))
    write_map_table(MapTable(F4, 2, 2, F16, 3, 3, torn), directory / "torn.bfmap")
    for argv in (["witness-hom", "--src", "2:2x2", "--dst", "4:2x2",
                  "--table-out", str(directory / "w.bfmap")],
                 ["xi-demo", "--src-field", "2,2", "--dst-field", "2,4",
                  "--cols", "2", "--table-out", str(directory / "xi.bfmap")]):
        code, _ = run(argv)
        assert code == 0, argv
    return directory


def expand(argv, directory: Path):
    return [a.replace("{dir}", str(directory)) for a in argv]


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    return write_tables(tmp_path_factory.mktemp("golden_tables"))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name, tables):
    want = (GOLDEN / f"{name}.json").read_text()
    code, got = run(expand(COMMANDS[name], tables))
    assert got == want
    assert code == {"pass": 0, "fail": 1}.get(json.loads(want)["verdict"], 2)


def test_every_subcommand_has_a_golden_report():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    covered = {argv[0] for argv in COMMANDS.values()}
    assert set(sub.choices) - covered == set()


def test_golden_report_file_matches_stdout(tables):
    code, got = run(expand(COMMANDS["recover-standard"], tables))
    assert (tables / "report.json").read_text() == got


def regenerate(directory: Path):
    GOLDEN.mkdir(exist_ok=True)
    write_tables(directory)
    for name, argv in sorted(COMMANDS.items()):
        _, text = run(expand(argv, directory))
        (GOLDEN / f"{name}.json").write_text(text)
        print(name, text.strip()[:100])


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)
