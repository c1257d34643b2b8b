"""Command-line front end: batch verifiers with deterministic JSON reports.

Exit codes: 0 the run passed, 1 a mathematical counterexample or negative
pipeline exit was found, 2 usage or input-format errors.  Worker counts
come from --workers or the MATGEO_WORKERS environment variable; every
report is byte-identical across worker counts and reruns at a fixed seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import verify
from .errors import (BfgeoError, Degenerate, DimDeficient, NoFit, NoHomExists,
                     NotHom, SingularTwist)
from .fields import (enumerate_homs, field_from_order, identity_hom,
                     parse_field_name)
from .grassmann import (check_rigidity_step, check_rigidity_step_cols,
                        check_rigidity_top, check_rigidity_top_cols)
from .homs import (TwistSide, XiMapParams, build_witness_hom,
                   hom_exists, is_colouring, is_degenerate, is_graph_hom,
                   make_xi_map, moebius_twist)
from .mapfile import parse_map_table, write_map_table
from .matrices import Mat, arithmetic_distance
from .recovery import fit_semiaffine, recover_standard
from .reports import RunReport, emit_report


def _parse_shape(text: str):
    m, n = text.lower().split("x")
    return int(m), int(n)


def _parse_space(text: str):
    """"q:mxn" -> (field, m, n)."""
    q, shape = text.split(":")
    return (field_from_order(int(q)),) + _parse_shape(shape)


def _workers(args) -> int:
    """The requested worker count; the rigidity pool clamps it further."""
    raw = args.workers if args.workers is not None else os.environ.get("MATGEO_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"--workers / MATGEO_WORKERS must be a positive integer, got {raw!r}")
    return workers


def _finish(report: RunReport, args) -> int:
    text = emit_report(report, getattr(args, "out", None))
    sys.stdout.write(text)
    return report.exit_code


def _verdict_from(info: dict, report: RunReport, keys=("violations", "mismatches")):
    report.counts.update({k: v for k, v in info.items() if isinstance(v, int)})
    for key in keys:
        bad = info.get(key, [])
        if bad:
            report.fail(*[str(b) for b in bad[:16]])
    return report


# --- subcommand handlers -----------------------------------------------------

def cmd_field_info(args):
    F = parse_field_name(args.field)
    report = RunReport("field-info", {"field": F.name})
    report.counts = {
        "order": F.q, "characteristic": F.p, "degree": F.k,
        "self_homs": len(enumerate_homs(F, F)),
    }
    report.params["modulus"] = ",".join(str(c) for c in F.modulus)
    return _finish(report, args)


def cmd_bfs_check(args):
    F = parse_field_name(args.field)
    m, n = _parse_shape(args.shape)
    report = RunReport("bfs-check", {"field": F.name, "shape": f"{m}x{n}"})
    info = verify.distance_theorem_check(F, m, n)
    return _finish(_verdict_from(info, report), args)


def cmd_clique_classify(args):
    F = parse_field_name(args.field)
    m, n = _parse_shape(args.shape)
    report = RunReport("clique-classify", {"field": F.name, "shape": f"{m}x{n}"})
    info = verify.clique_structure_check(F, m, n)
    return _finish(_verdict_from(info, report), args)


def cmd_line_check(args):
    F = parse_field_name(args.field)
    m, n = _parse_shape(args.shape)
    report = RunReport("line-check", {"field": F.name, "shape": f"{m}x{n}"})
    info = verify.line_structure_check(F, m, n)
    return _finish(_verdict_from(info, report), args)


def cmd_exists(args):
    if args.grid:
        report = RunReport("exists", {"grid": "default"})
        info = verify.existence_grid_check(verify_witnesses=not args.no_witnesses,
                                           max_domain=args.max_domain)
        report.params["results"] = ";".join(info.pop("results"))
        return _finish(_verdict_from(info, report), args)
    src, m, n = _parse_space(args.src)
    dst, m2, n2 = _parse_space(args.dst)
    report = RunReport("exists", {"src": args.src, "dst": args.dst})
    result = hom_exists(src.q, m, n, dst.q, m2, n2)
    report.counts["exists"] = int(result)
    if args.certificate and not result:
        info = verify.pigeonhole_certificate(src.q, m, n, dst.q, m2, n2)
        report.counts.update({k: int(v) for k, v in info.items()})
        if not info["pigeonhole_blocks"]:
            report.fail("pigeonhole certificate does not apply")
    return _finish(report, args)


def cmd_color(args):
    F = parse_field_name(args.field)
    m, n = _parse_shape(args.shape)
    report = RunReport("color", {"field": F.name, "shape": f"{m}x{n}"})
    info = verify.coloring_check(F, m, n)
    _verdict_from(info, report)
    if info["colors"] != info["expected_colors"] or info["monochromatic_edges"]:
        report.fail(f"colors={info['colors']}, mono={info['monochromatic_edges']}")
    return _finish(report, args)


def cmd_witness_hom(args):
    src, m, n = _parse_space(args.src)
    dst, m2, n2 = _parse_space(args.dst)
    report = RunReport("witness-hom", {"src": args.src, "dst": args.dst})
    try:
        w = build_witness_hom(src.q, m, n, dst.q, m2, n2)
    except NoHomExists as e:
        report.counts["exists"] = 0
        report.fail(str(e))
        return _finish(report, args)
    ok, _ = is_graph_hom(w)
    report.counts.update({"exists": 1, "is_hom": int(ok),
                          "is_colouring": int(is_colouring(w))})
    if not ok:
        report.fail("witness is not a homomorphism")
    if args.table_out:
        write_map_table(w, args.table_out)
    return _finish(report, args)


def cmd_hom_verify(args):
    if args.random_standard:
        src, m, n = _parse_space(args.src)
        dst, m2, n2 = _parse_space(args.dst)
        report = RunReport("hom-verify",
                           {"src": args.src, "dst": args.dst,
                            "random_standard": args.random_standard},
                           seed=args.seed)
        info = verify.standard_form_sweep(src, m, n, dst, m2, n2,
                                          args.random_standard, seed=args.seed)
        return _finish(_verdict_from(info, report), args)
    f = parse_map_table(args.map)
    report = RunReport("hom-verify", {"map": os.path.basename(args.map)},
                       seed=args.seed)
    mode = "sampled" if args.sample else "exhaustive"
    ok, w = is_graph_hom(f, mode=mode, samples=args.sample or 0, seed=args.seed)
    report.counts["is_hom"] = int(ok)
    report.counts["is_colouring"] = int(is_colouring(f))
    if not ok:
        report.fail(f"{w[0].to_text()} ~ {w[1].to_text()} torn")
    return _finish(report, args)


def cmd_degeneracy_check(args):
    f = parse_map_table(args.map)
    report = RunReport("degeneracy-check", {"map": os.path.basename(args.map)})
    try:
        deg, w = is_degenerate(f)
    except NotHom as e:
        report.verdict = "error"
        report.witnesses.append(str(e))
        return _finish(report, args)
    report.counts["degenerate"] = int(deg)
    if deg:
        A, M, N = w
        report.witnesses.append(f"center {A.to_text()}")
    return _finish(report, args)


def cmd_xi_demo(args):
    src = parse_field_name(args.src_field)
    dst = parse_field_name(args.dst_field)
    report = RunReport("xi-demo", {"src": src.name, "dst": dst.name,
                                   "cols": args.cols})
    homs = enumerate_homs(src, dst)
    if not homs or src.q == dst.q:
        report.verdict = "error"
        report.witnesses.append("need a proper field extension")
        return _finish(report, args)
    emb = homs[0]
    xi = next(e for e in range(dst.q) if e not in set(emb.table.tolist()))
    f = make_xi_map(XiMapParams(emb, xi, args.cols))
    ok, _ = is_graph_hom(f)
    deg, _ = is_degenerate(f)
    A = Mat(src, [[1] + [0] * (args.cols - 1),
                  [1] + [0] * (args.cols - 1),
                  [0, 1] + [0] * (args.cols - 2)])
    Z = Mat.zeros(src, 3, args.cols)
    drop = (arithmetic_distance(A, Z),
            arithmetic_distance(f.apply(A), f.apply(Z)))
    report.counts.update({"is_hom": int(ok), "degenerate": int(deg),
                          "pair_distance": drop[0], "image_distance": drop[1]})
    if not ok or deg or drop != (2, 1):
        report.fail(f"expected a non-degenerate hom collapsing 2 -> 1, got {drop}")
    if args.table_out:
        write_map_table(f, args.table_out)
    return _finish(report, args)


def cmd_twist(args):
    if args.identity_sweep:
        F = parse_field_name(args.field)
        m, n = _parse_shape(args.shape)
        report = RunReport("twist", {"field": F.name, "shape": f"{m}x{n}",
                                     "identity_sweep": 1})
        info = verify.identity_twist_sweep(F, m, n)
        report.counts["valid"] = len(info["valid"])
        report.counts["singular"] = info["singular"]
        report.counts["twists_tried"] = info["twists_tried"]
        if info["violations"]:
            report.fail(*info["violations"])
        return _finish(report, args)
    f = parse_map_table(args.map)
    L = Mat.from_text(f.dst_field, args.twist)
    side = TwistSide.LEFT if args.side == "left" else TwistSide.RIGHT
    report = RunReport("twist", {"map": os.path.basename(args.map),
                                 "L": args.twist, "side": args.side})
    try:
        theta = moebius_twist(f, L, side)
    except SingularTwist as e:
        report.fail(f"singular at {e.witness.to_text()}")
        return _finish(report, args)
    report.counts["twisted"] = 1
    if args.table_out:
        write_map_table(theta, args.table_out)
    return _finish(report, args)


def cmd_lemma_check(args):
    which = args.which
    report = RunReport("lemma-check", {"which": which}, seed=args.seed)
    if which == "3.1":
        F = parse_field_name(args.field)
        m, n = _parse_shape(args.shape)
        report.params.update({"field": F.name, "shape": f"{m}x{n}"})
        info = verify.two_pencil_check(F, m, n, rows=[0], cols=[0])
        return _finish(_verdict_from(info, report), args)
    if which == "5.1":
        src, m, n = _parse_space(args.src)
        dst = _parse_space(args.dst)[0] if args.dst else src
        report.params.update({"src": src.name, "dst": dst.name})
        info = verify.standard_form_sweep(src, m, n, dst,
                                          max(m, 2), max(n, 2),
                                          args.sample or 20, seed=args.seed)
        return _finish(_verdict_from(info, report), args)
    # flat rigidity sweeps
    E = parse_field_name(args.e_field)
    D = parse_field_name(args.d_field) if args.d_field else E
    hom = identity_hom(E) if E == D else enumerate_homs(E, D)[0]
    kw = dict(a_sample=args.sample, seed=args.seed, workers=_workers(args))
    runner = {
        "4.1": lambda: check_rigidity_top(E, hom, args.m, args.n, args.k, **kw),
        "4.2": lambda: check_rigidity_step(E, hom, args.m, args.n, args.k,
                                           args.r, **kw),
        "4.3": lambda: check_rigidity_top_cols(E, hom, args.m, args.n, args.k,
                                               **kw),
        "4.4": lambda: check_rigidity_step_cols(E, hom, args.m, args.n,
                                                args.k, args.r, **kw),
    }[which]
    info = runner()
    report.params.update(info["params"])
    report.params["sampled"] = int(report.params.get("sampled", False))
    report.counts = {
        "strata_checked": info["strata_checked"],
        "vacuous": len(info["vacuous"]),
        **info["branch_counts"],
    }
    if info["counterexamples"]:
        report.fail(*[str(c) for c in info["counterexamples"][:16]])
    return _finish(report, args)


def cmd_fit_semiaffine(args):
    f = parse_map_table(args.map)
    report = RunReport("fit-semiaffine", {"map": os.path.basename(args.map)})
    if f.m != 1 or f.m2 != 1:
        report.verdict = "error"
        report.witnesses.append("fit expects a 1 x n -> 1 x n' table")
        return _finish(report, args)
    try:
        wsa = fit_semiaffine(f.src_field, f.dst_field, f.images[:, 0, :])
    except NoFit as e:
        report.fail(str(e))
        return _finish(report, args)
    report.counts["fitted"] = 1
    report.params.update({
        "tau_generator_image": wsa.tau.generator_image,
        "P": wsa.P.to_text(),
        "denominator": ",".join(str(c) for c in wsa.a) + f";{wsa.b}",
    })
    return _finish(report, args)


def cmd_recover(args):
    if args.roundtrip:
        src, m, n = _parse_space(args.src)
        dst, m2, n2 = _parse_space(args.dst)
        report = RunReport("recover", {"src": args.src, "dst": args.dst,
                                       "roundtrip": args.roundtrip},
                           seed=args.seed)
        info = verify.standard_form_sweep(src, m, n, dst, m2, n2,
                                          args.roundtrip, seed=args.seed,
                                          recover=True)
        return _finish(_verdict_from(info, report), args)
    if args.dim_bound:
        src, m, n = _parse_space(args.src)
        dst, m2, n2 = _parse_space(args.dst)
        report = RunReport("recover", {"src": args.src, "dst": args.dst,
                                       "dim_bound": args.dim_bound},
                           seed=args.seed)
        info = verify.dim_bound_sweep(src, m, n, dst, m2, n2,
                                      n_tables=max(1, args.dim_bound // 10),
                                      n_sets=10, seed=args.seed)
        return _finish(_verdict_from(info, report), args)
    f = parse_map_table(args.map)
    report = RunReport("recover", {"map": os.path.basename(args.map)})
    try:
        res = recover_standard(f)
    except NotHom as e:
        report.params["exit"] = "not_hom"
        report.fail(f"{e.witness[0].to_text()} ~ {e.witness[1].to_text()}")
        return _finish(report, args)
    except Degenerate as e:
        report.params["exit"] = "degenerate"
        report.fail(f"center {e.witness[0].to_text()}")
        return _finish(report, args)
    except DimDeficient as e:
        report.params["exit"] = "dim_deficient"
        report.fail(f"{e.witness[0]} has dimension {e.witness[1]}")
        return _finish(report, args)
    except NoFit as e:
        report.params["exit"] = "no_fit"
        report.fail(str(e))
        return _finish(report, args)
    p = res.params
    report.params.update({
        "exit": "ok",
        "orientation": p.orientation.value,
        "P": p.P.to_text(),
        "Q": p.Q.to_text(),
        "L": p.L.to_text(),
        "tau": {"src": p.tau.src.name, "dst": p.tau.dst.name,
                "generator_image": p.tau.generator_image},
    })
    report.counts["residual_checked"] = int(res.residual_checked)
    return _finish(report, args)


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bfgeo",
        description="verifiers and parameter recovery for matrix-space "
                    "adjacency geometry over small finite fields")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker threads (default: MATGEO_WORKERS or 1)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON report here")
        return p

    p = add("field-info", cmd_field_info, help="field facts")
    p.add_argument("--field", required=True, help='"p,k"')

    for name, fn in [("bfs-check", cmd_bfs_check),
                     ("clique-classify", cmd_clique_classify),
                     ("line-check", cmd_line_check)]:
        p = add(name, fn)
        p.add_argument("--field", required=True)
        p.add_argument("--shape", required=True, help='"mxn"')

    p = add("exists", cmd_exists, help="existence criterion")
    p.add_argument("--src", help='"q:mxn"')
    p.add_argument("--dst", help='"q:mxn"')
    p.add_argument("--grid", action="store_true", help="run the default grid")
    p.add_argument("--no-witnesses", action="store_true")
    p.add_argument("--certificate", action="store_true",
                   help="pigeonhole-certify a negative answer")
    p.add_argument("--max-domain", type=int, default=1 << 16)

    p = add("color", cmd_color, help="proper coloring check")
    p.add_argument("--field", required=True)
    p.add_argument("--shape", required=True)

    p = add("witness-hom", cmd_witness_hom)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--table-out", help="write the witness table here")

    p = add("hom-verify", cmd_hom_verify)
    p.add_argument("--map", help="map-table file")
    p.add_argument("--sample", type=int, default=0,
                   help="sampled mode with this many pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-standard", type=int, default=0,
                   help="verify this many random standard tables")
    p.add_argument("--src")
    p.add_argument("--dst")

    p = add("degeneracy-check", cmd_degeneracy_check)
    p.add_argument("--map", required=True)

    p = add("xi-demo", cmd_xi_demo)
    p.add_argument("--src-field", default="2,2")
    p.add_argument("--dst-field", default="2,4")
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--table-out")

    p = add("twist", cmd_twist)
    p.add_argument("--map")
    p.add_argument("--twist", help="twist matrix in text form")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--identity-sweep", action="store_true")
    p.add_argument("--field")
    p.add_argument("--shape")
    p.add_argument("--table-out")

    p = add("lemma-check", cmd_lemma_check)
    p.add_argument("--which", required=True,
                   choices=["3.1", "4.1", "4.2", "4.3", "4.4", "5.1"])
    p.add_argument("--field", default="2,2")
    p.add_argument("--shape", default="2x2")
    p.add_argument("--src", default="4:2x2")
    p.add_argument("--dst")
    p.add_argument("--e-field", default="2,2")
    p.add_argument("--d-field")
    p.add_argument("-m", type=int, default=2)
    p.add_argument("-n", type=int, default=2)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-r", type=int, default=1)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("fit-semiaffine", cmd_fit_semiaffine)
    p.add_argument("--map", required=True)

    p = add("recover", cmd_recover)
    p.add_argument("--map")
    p.add_argument("--roundtrip", type=int, default=0)
    p.add_argument("--dim-bound", type=int, default=0)
    p.add_argument("--src")
    p.add_argument("--dst")
    p.add_argument("--seed", type=int, default=0)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (BfgeoError, ValueError, OSError) as e:
        report = RunReport(args.command, {}, verdict="error",
                           witnesses=[f"{type(e).__name__}: {e}"])
        sys.stdout.write(emit_report(report, getattr(args, "out", None)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
