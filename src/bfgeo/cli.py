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
from .fields import enumerate_homs, field_from_order, identity_hom, parse_field_name
from .grassmann import (check_rigidity_step, check_rigidity_step_cols,
                        check_rigidity_top, check_rigidity_top_cols)
from .homs import (TwistSide, XiMapParams, build_witness_hom, hom_exists, is_colouring,
                   is_degenerate, is_graph_hom, make_xi_map, moebius_twist)
from .mapfile import parse_map_table, write_map_table
from .matrices import Mat, arithmetic_distance
from .recovery import fit_semiaffine, recover_standard
from .reports import RunReport, emit_report


def _parse_shape(text: str):
    m, n = (int(t) for t in text.lower().split("x"))
    if min(m, n) < 1:
        raise ValueError(f"shape {text!r} must be two positive integers, as in 2x3")
    return m, n


def _parse_space(text: str):
    """"q:mxn" -> (field, m, n)."""
    q, shape = text.split(":")
    return (field_from_order(int(q)),) + _parse_shape(shape)


def _spaces(args):
    """(src, m, n, dst, m2, n2) from --src and --dst."""
    return _parse_space(args.src) + _parse_space(args.dst)


def _report(args, params: dict, **kw) -> RunReport:
    """The handler's report, kept on args, so that main's report of an error
    the handler raises later names its params and seed."""
    args.report = RunReport(args.command, params, **kw)
    return args.report


def _error_report(args, e: Exception) -> RunReport:
    built = getattr(args, "report", RunReport(args.command, {}))
    return RunReport(args.command, built.params, seed=built.seed).error(
        f"{type(e).__name__}: {e}")


def _field_shape(args, **params):
    """(F, m, n, report) from --field and --shape."""
    F = parse_field_name(args.field)
    m, n = _parse_shape(args.shape)
    return F, m, n, _report(args, {"field": F.name, "shape": f"{m}x{n}", **params})


def _map_table(args, **kw):
    """(table, report) from --map; the report names the file, not its path,
    and is built first, so that a file that fails to parse is named too."""
    report = _report(args, {"map": os.path.basename(args.map)}, **kw)
    return parse_map_table(args.map), report


def _count(minimum: int):
    """An argparse type for a count option: an integer of at least minimum."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


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


# witnesses a report lists; past it, counts["witnesses_total"] gives the total
WITNESS_LIMIT = 16


def _fail_with(report: RunReport, witnesses):
    if len(witnesses) > WITNESS_LIMIT:
        report.counts["witnesses_total"] = len(witnesses)
    return report.fail(*witnesses[:WITNESS_LIMIT])


def _verdict_from(info: dict, report: RunReport):
    report.counts.update({k: v for k, v in info.items() if isinstance(v, int)})
    bad = [str(b) for key in ("violations", "mismatches") for b in info.get(key, [])]
    return _fail_with(report, bad) if bad else report


# --- subcommand handlers: each returns its RunReport ---------------------------

def cmd_field_info(args):
    F = parse_field_name(args.field)
    return _report(args, {"field": F.name, "modulus": ",".join(map(str, F.modulus))},
                   counts={"order": F.q, "characteristic": F.p, "degree": F.k,
                             "self_homs": len(enumerate_homs(F, F))})


SWEEPS = {
    "bfs-check": verify.distance_theorem_check,
    "clique-classify": verify.clique_structure_check,
    "line-check": verify.line_structure_check,
    "color": verify.coloring_check,
}


def cmd_sweep(args):
    F, m, n, report = _field_shape(args)
    return _verdict_from(SWEEPS[args.command](F, m, n), report)


# seeded sweeps between --src and --dst, by the count option selecting each
SPACE_SWEEPS = {
    "random_standard": lambda spaces, count, seed: verify.standard_form_sweep(
        *spaces, count, seed=seed),
    "roundtrip": lambda spaces, count, seed: verify.standard_form_sweep(
        *spaces, count, seed=seed, recover=True),
    "dim_bound": lambda spaces, count, seed: verify.dim_bound_sweep(
        *spaces, n_tables=-(-count // 10), n_sets=10, seed=seed, total=count),
}


def cmd_space_sweep(args):
    count = getattr(args, args.mode)
    report = _report(args, {"src": args.src, "dst": args.dst, args.mode: count},
                     seed=args.seed)
    return _verdict_from(SPACE_SWEEPS[args.mode](_spaces(args), count, args.seed), report)


def cmd_exists_grid(args):
    """The default grid; its params name --no-witnesses and --max-domain
    only when given, so the plain run's report keeps its bytes."""
    report, kw = _report(args, {"grid": "default"}), {}
    if args.no_witnesses:
        report.params["no_witnesses"] = 1
    if args.max_domain is not None:
        report.params["max_domain"] = kw["max_domain"] = args.max_domain
    info = verify.existence_grid_check(verify_witnesses=not args.no_witnesses, **kw)
    report.params["results"] = ";".join(info.pop("results"))
    return _verdict_from(info, report)


def cmd_exists(args):
    src, m, n, dst, m2, n2 = _spaces(args)
    report = _report(args, {"src": args.src, "dst": args.dst})
    result = hom_exists(src.q, m, n, dst.q, m2, n2)
    report.counts["exists"] = int(result)
    if args.certificate and not result:
        info = verify.pigeonhole_certificate(src.q, m, n, dst.q, m2, n2)
        report.counts.update({k: int(v) for k, v in info.items()})
        if not info["pigeonhole_blocks"]:
            report.fail("pigeonhole certificate does not apply")
    return report


def cmd_witness_hom(args):
    src, m, n, dst, m2, n2 = _spaces(args)
    report = _report(args, {"src": args.src, "dst": args.dst})
    try:
        w = build_witness_hom(src.q, m, n, dst.q, m2, n2)
    except NoHomExists as e:
        report.counts["exists"] = 0
        return report.fail(str(e))
    ok, _ = is_graph_hom(w)
    report.counts.update(exists=1, is_hom=int(ok), is_colouring=int(is_colouring(w)))
    if not ok:
        report.fail("witness is not a homomorphism")
    if args.table_out:
        write_map_table(w, args.table_out)
    return report


def cmd_hom_verify(args):
    f, report = _map_table(args, seed=args.seed)
    if args.sample:
        report.params["sample"] = args.sample
    mode = "sampled" if args.sample else "exhaustive"
    ok, w = is_graph_hom(f, mode=mode, samples=args.sample, seed=args.seed)
    report.counts.update(is_hom=int(ok), is_colouring=int(is_colouring(f)))
    if not ok:
        report.fail(f"{w[0].to_text()} ~ {w[1].to_text()} torn")
    return report


def cmd_degeneracy_check(args):
    f, report = _map_table(args)
    try:
        deg, w = is_degenerate(f)
    except NotHom as e:
        return report.error(str(e))
    report.counts["degenerate"] = int(deg)
    if deg:
        report.witnesses.append(f"center {w[0].to_text()}")
    return report


def cmd_xi_demo(args):
    src = parse_field_name(args.src_field)
    dst = parse_field_name(args.dst_field)
    report = _report(args, {"src": src.name, "dst": dst.name, "cols": args.cols})
    homs = enumerate_homs(src, dst)
    if not homs or src.q == dst.q:
        return report.error("need a proper field extension")
    emb = homs[0]
    xi = next(e for e in range(dst.q) if e not in set(emb.table.tolist()))
    f = make_xi_map(XiMapParams(emb, xi, args.cols))
    ok, _ = is_graph_hom(f)
    deg, _ = is_degenerate(f)
    A = Mat(src, [[1] + [0] * (args.cols - 1),
                  [1] + [0] * (args.cols - 1),
                  [0, 1] + [0] * (args.cols - 2)])
    Z = Mat.zeros(src, 3, args.cols)
    drop = (arithmetic_distance(A, Z), arithmetic_distance(f.apply(A), f.apply(Z)))
    report.counts.update({"is_hom": int(ok), "degenerate": int(deg),
                          "pair_distance": drop[0], "image_distance": drop[1]})
    if not ok or deg or drop != (2, 1):
        report.fail(f"expected a non-degenerate hom collapsing 2 -> 1, got {drop}")
    if args.table_out:
        write_map_table(f, args.table_out)
    return report


def cmd_twist_sweep(args):
    F, m, n, report = _field_shape(args, identity_sweep=1)
    info = verify.identity_twist_sweep(F, m, n)
    report.counts.update(valid=len(info["valid"]), singular=info["singular"],
                         twists_tried=info["twists_tried"])
    if info["violations"]:
        report.fail(*info["violations"])
    return report


def cmd_twist(args):
    f, report = _map_table(args)
    L = Mat.from_text(f.dst_field, args.twist)
    report.params.update({"L": args.twist, "side": args.side})
    try:
        theta = moebius_twist(f, L, TwistSide(args.side))
    except SingularTwist as e:
        return report.fail(f"singular at {e.witness.to_text()}")
    report.counts["twisted"] = 1
    if args.table_out:
        write_map_table(theta, args.table_out)
    return report


def cmd_pencil_check(args):
    """lemma-check --which 3.1: Lemma 3.1's two-pencil support dichotomy."""
    F, m, n, report = _field_shape(args, which=args.which)
    return _verdict_from(verify.two_pencil_check(F, m, n, rows=[0], cols=[0]), report)


def cmd_resolvent_check(args):
    """lemma-check --which 5.1: hom-verify --random-standard's sweep."""
    args.dst = args.dst or args.src
    report = _report(args, {"which": args.which, "src": args.src, "dst": args.dst,
                            "sample": args.sample}, seed=args.seed)
    info = SPACE_SWEEPS["random_standard"](_spaces(args), args.sample, args.seed)
    return _verdict_from(info, report)


def cmd_rigidity_check(args):
    """lemma-check --which 4.1-4.4: a flat rigidity sweep, looked up here."""
    report = _report(args, {"which": args.which}, seed=args.seed)
    E = parse_field_name(args.e_field)
    D = parse_field_name(args.d_field) if args.d_field else E
    homs = [identity_hom(E)] if E == D else enumerate_homs(E, D)
    if not homs:
        raise ValueError("no field homomorphism between these fields")
    hom = homs[0]
    check = {"4.1": check_rigidity_top, "4.2": check_rigidity_step,
             "4.3": check_rigidity_top_cols, "4.4": check_rigidity_step_cols}[args.which]
    # only the stepped sweeps 4.2 and 4.4 read -r, so only they have it
    extra = (args.r,) if hasattr(args, "r") else ()
    info = check(E, hom, args.m, args.n, args.k, *extra, a_sample=args.sample,
                 seed=args.seed, workers=_workers(args))
    report.params.update(info["params"], sampled=int(info["params"]["sampled"]))
    if args.sample:
        report.params["sample"] = args.sample
    report.counts = {"strata_checked": info["strata_checked"],
                     "vacuous": len(info["vacuous"]), **info["branch_counts"]}
    if info["counterexamples"]:
        _fail_with(report, [str(c) for c in info["counterexamples"]])
    return report


def cmd_fit_semiaffine(args):
    f, report = _map_table(args)
    if f.m != 1 or f.m2 != 1:
        return report.error("fit expects a 1 x n -> 1 x n' table")
    try:
        wsa = fit_semiaffine(f.src_field, f.dst_field, f.images[:, 0, :])
    except NoFit as e:
        return report.fail(str(e))
    report.counts["fitted"] = 1
    report.params.update({"tau_generator_image": wsa.tau.generator_image,
                          "P": wsa.P.to_text(),
                          "denominator": ",".join(str(c) for c in wsa.a) + f";{wsa.b}"})
    return report


# recover's negative pipeline exits: exception -> (params["exit"], witness)
RECOVER_EXITS = {
    NotHom: ("not_hom", lambda e: f"{e.witness[0].to_text()} ~ {e.witness[1].to_text()}"),
    Degenerate: ("degenerate", lambda e: f"center {e.witness[0].to_text()}"),
    DimDeficient: ("dim_deficient", lambda e: f"{e.witness[0]} has dimension {e.witness[1]}"),
    NoFit: ("no_fit", str),
}


def cmd_recover(args):
    f, report = _map_table(args)
    try:
        res = recover_standard(f)
    except tuple(RECOVER_EXITS) as e:
        report.params["exit"], witness = RECOVER_EXITS[type(e)]
        return report.fail(witness(e))
    p = res.params
    report.params.update({"exit": "ok", "orientation": p.orientation.value, "P": p.P.to_text(),
                          "Q": p.Q.to_text(), "L": p.L.to_text(),
                          "tau": {"src": p.tau.src.name, "dst": p.tau.dst.name,
                                  "generator_image": p.tau.generator_image}})
    report.counts["residual_checked"] = int(res.residual_checked)
    return report


# --- parser ----------------------------------------------------------------

# options several subcommands take, each declared once; only main's --out has a default
SHARED = {
    "out": dict(default=None, help="write the JSON report here"),
    "field": dict(help='"p,k"'),
    "shape": dict(help='"mxn"'),
    "src": dict(help='"q:mxn"'),
    "dst": dict(help='"q:mxn"'),
    "map": dict(help="map-table file"),
    "seed": dict(type=int),
    "table-out": dict(help="write the resulting map table here"),
}
# the reads entry of an option a mode cannot run without
REQUIRED = object()


def build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand carries its modes as (selector, reads,
    handler).  The mode whose selector is set runs, the last one when none
    is.  reads maps each option the mode reads, its selector among them, to
    its default or to REQUIRED: a subcommand option has no other default."""
    ap = argparse.ArgumentParser(
        prog="bfgeo",
        description="verifiers and parameter recovery for matrix-space "
                    "adjacency geometry over small finite fields")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker threads (default: MATGEO_WORKERS or 1)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, shared, *modes, **kw):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, **kw)
        for option in ("out",) + shared:
            p.add_argument(f"--{option}", **SHARED[option])
        p.set_defaults(modes=modes)
        return p

    field_shape = {"field": REQUIRED, "shape": REQUIRED}
    space_sweep = {"src": REQUIRED, "dst": REQUIRED, "seed": 0}

    add("field-info", ("field",), (None, {"field": REQUIRED}, cmd_field_info), help="field facts")
    for name in SWEEPS:
        add(name, ("field", "shape"), (None, field_shape, cmd_sweep))

    p = add("exists", ("src", "dst"),
            ("grid", {"grid": REQUIRED, "no_witnesses": False, "max_domain": None},
             cmd_exists_grid),
            ("src", {"src": REQUIRED, "dst": REQUIRED, "certificate": False}, cmd_exists),
            help="existence criterion")
    p.add_argument("--grid", action="store_true", help="run the default grid")
    p.add_argument("--no-witnesses", action="store_true")
    p.add_argument("--certificate", action="store_true",
                   help="pigeonhole-certify a negative answer")
    p.add_argument("--max-domain", type=_count(1))

    add("witness-hom", ("src", "dst", "table-out"),
        (None, {"src": REQUIRED, "dst": REQUIRED, "table_out": None}, cmd_witness_hom))

    p = add("hom-verify", ("map", "seed", "src", "dst"),
            ("random_standard", {"random_standard": REQUIRED, **space_sweep}, cmd_space_sweep),
            ("map", {"map": REQUIRED, "sample": 0, "seed": 0}, cmd_hom_verify))
    p.add_argument("--sample", type=_count(0), help="sampled mode with this many pairs")
    p.add_argument("--random-standard", type=_count(0),
                   help="verify this many random standard tables")

    add("degeneracy-check", ("map",), (None, {"map": REQUIRED}, cmd_degeneracy_check))

    p = add("xi-demo", ("table-out",), (None, {"src_field": "2,2", "dst_field": "2,4",
                                               "cols": 2, "table_out": None}, cmd_xi_demo))
    p.add_argument("--src-field")
    p.add_argument("--dst-field")
    p.add_argument("--cols", type=int)

    p = add("twist", ("map", "field", "shape", "table-out"),
            ("identity_sweep", {"identity_sweep": REQUIRED, **field_shape}, cmd_twist_sweep),
            ("map", {"map": REQUIRED, "twist": REQUIRED, "side": "left", "table_out": None},
             cmd_twist))
    p.add_argument("--twist", help="twist matrix in text form")
    p.add_argument("--side", choices=["left", "right"])
    p.add_argument("--identity-sweep", action="store_true")

    rigidity = {"which": REQUIRED, "e_field": "2,2", "d_field": None, "m": 2, "n": 2, "k": 2,
                "sample": None, "seed": 0}
    p = add("lemma-check", ("field", "shape", "src", "dst", "seed"),
            ("which 3.1", {"which": REQUIRED, "field": "2,2", "shape": "2x2"}, cmd_pencil_check),
            ("which 4.1", rigidity, cmd_rigidity_check),
            ("which 4.2", {**rigidity, "r": 1}, cmd_rigidity_check),
            ("which 4.3", rigidity, cmd_rigidity_check),
            ("which 4.4", {**rigidity, "r": 1}, cmd_rigidity_check),
            ("which 5.1", {"which": REQUIRED, "src": "4:2x2", "dst": None, "sample": 20,
                           "seed": 0}, cmd_resolvent_check))
    p.add_argument("--which", required=True, choices=["3.1", "4.1", "4.2", "4.3", "4.4", "5.1"])
    p.add_argument("--e-field")
    p.add_argument("--d-field")
    for flag in ("-m", "-n", "-k", "-r"):
        p.add_argument(flag, type=int)
    p.add_argument("--sample", type=_count(1))

    add("fit-semiaffine", ("map",), (None, {"map": REQUIRED}, cmd_fit_semiaffine))

    p = add("recover", ("map", "src", "dst", "seed"),
            ("roundtrip", {"roundtrip": REQUIRED, **space_sweep}, cmd_space_sweep),
            ("dim_bound", {"dim_bound": REQUIRED, **space_sweep}, cmd_space_sweep),
            ("map", {"map": REQUIRED}, cmd_recover))
    p.add_argument("--roundtrip", type=_count(0))
    p.add_argument("--dim-bound", type=_count(0))

    for p in sub.choices.values():  # the options a mode may read, in parser order
        p.set_defaults(options=[a.dest for a in p._actions if a.default is argparse.SUPPRESS])
    return ap


def _flag(dest: str) -> str:
    return ("-" if len(dest) == 1 else "--") + dest.replace("_", "-")


def _mode_handler(ap, args):
    """The handler of the mode args select, args.mode its selector: a set
    option ("grid") or an option's value ("which 4.1").  ap.error (exit 2) on
    two modes, a missing or an unread option; else fills in reads' defaults."""
    given = [dest for dest in args.options if hasattr(args, dest)]
    selected = {dest for dest in given if getattr(args, dest)}
    selected |= {f"{dest} {getattr(args, dest)}" for dest in given}
    chosen = [mode for mode in args.modes if mode[0] in selected]
    if len(chosen) > 1:
        ap.error(f"{args.command}: choose one of "
                 + ", ".join(_flag(mode[0]) for mode in chosen))
    args.mode, reads, handler = chosen[0] if chosen else args.modes[-1]
    missing = [_flag(dest) for dest, default in reads.items()
               if default is REQUIRED and not hasattr(args, dest)]
    if missing:
        ap.error(f"{args.command}: the following arguments are required: "
                 + ", ".join(missing))
    unread = [_flag(dest) for dest in given if dest not in reads]
    if unread:
        ap.error(f"{args.command} {_flag(args.mode)} does not read " + ", ".join(unread))
    for dest, default in reads.items():
        vars(args).setdefault(dest, default)
    return handler


def main(argv=None) -> int:
    """Run one subcommand; the only place a report is written and its
    verdict turned into the exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        handler = _mode_handler(ap, args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        report = handler(args)
    except (BfgeoError, ValueError, OSError) as e:
        report = _error_report(args, e)
    try:
        text = emit_report(report, args.out)
    except OSError as e:  # an unwritable --out: report on stdout only
        report = _error_report(args, e)
        text = emit_report(report)
    sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
