"""bfgeo benchmark: one named workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload maps-gf5 --seed 1 --seconds 30 --trace 0

The run imports bfgeo from ``src/`` of the checkout, warms the field tables
and ``space()`` caches the workload uses (five times, after dropping the
caches), then runs rounds of the workload until ``--seconds`` have passed.
Every item is checked against its expected value; a mismatch or an
exception counts as a failed item.  ``setup_s`` is the median import time
of numpy and bfgeo in three fresh interpreters plus the median warm-up.

The host this runs on drifts in speed while the code stays the same, so
with ``--trace 0`` a fixed reference kernel (``reference.py``) is timed
between items and between the stages of table items, and every time
metric is the wall time scaled by the kernel's nominal over its measured
time around that work: seconds at a fixed host speed.  The raw item times
and the host speed are in the environment line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
rounds untraced for half the time, then replays the same rounds with every
public function of the bfgeo layer modules wrapped in spans, and prints the
per-layer metrics; the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment (CPU count, Python and numpy versions, workers).
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
IMPORT_REPS = 3


def import_library():
    """Import bfgeo from this checkout's src/ only; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "bfgeo" / "__init__.py").is_file():
        print(f"bfgeo sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    # one process, one thread of numerical work
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy
    import bfgeo
    if Path(bfgeo.__file__).resolve().parent != (src / "bfgeo").resolve():
        print(f"imported bfgeo from {bfgeo.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    import tracing
    import workloads
    return numpy, tracing, workloads


def measure_import(reps, clock):
    """Median time to import numpy and bfgeo in a fresh interpreter, raw and
    scaled to the reference host speed."""
    code = ("import time; t = time.perf_counter(); import numpy, bfgeo; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    raw, scaled = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        clock.sample()
        raw.append(float(done.stdout))
        scaled.append(raw[-1] * clock.scale(t0, t1))
    return statistics.median(raw), statistics.median(scaled)


def run_item(item):
    """(problems, work) of one item; an exception is a failed item, not a dead run."""
    try:
        return item()
    except Exception as exc:
        return [f"{type(exc).__name__}: {exc}"], {}


def run_rounds(workload, ctx, seed, seconds=None, count=None, clock=None):
    """Run rounds until `seconds` pass (at least one) or exactly `count`.

    Returns per-round wall times, per-item times, failures, work and wall.
    With a `clock`, the reference kernel is sampled between items and
    between the stages of long items, ``item_s`` leaves the sampling out,
    and ``item_ref_s`` holds the item times scaled to the reference host
    speed.
    """
    stream = workload.rounds(ctx, seed)
    out = {"round_s": [], "item_s": [], "kinds": [], "round_sizes": [],
           "failed": 0, "attempted": 0, "work": {}, "problems": []}
    segments = []
    t0 = time.perf_counter()
    while True:
        items = next(stream)
        out["round_sizes"].append(len(items))
        r0 = time.perf_counter()
        for item in items:
            out["kinds"].append(item.kind)
            if clock is None:
                i0 = time.perf_counter()
                problems, work = run_item(item)
                out["item_s"].append(time.perf_counter() - i0)
            else:
                clock.start()
                problems, work = run_item(item)
                segments.append(clock.stop())
                out["item_s"].append(sum(b - a for a, b in segments[-1]))
            out["attempted"] += 1
            if problems:
                out["failed"] += 1
                out["problems"].extend(problems)
            for key, amount in work.items():
                out["work"][key] = out["work"].get(key, 0) + amount
        out["round_s"].append(time.perf_counter() - r0)
        done = len(out["round_s"])
        if count is not None:
            if done >= count:
                break
        elif time.perf_counter() - t0 >= seconds:
            break
    out["wall_s"] = time.perf_counter() - t0
    if clock is not None:
        clock.sample()
        out["item_ref_s"] = [sum((b - a) * clock.scale(a, b) for a, b in segs)
                             for segs in segments]
    return out


def typical_round(res):
    """A round's time with every item at the median time of its kind.

    Rounds are few and hold items of very different sizes, so the median
    per kind is steadier than the median of whole rounds."""
    by_kind = {}
    for kind, t in zip(res["kinds"], res["item_ref_s"]):
        by_kind.setdefault(kind, []).append(t)
    per_round = collections.Counter(res["kinds"][:res["round_sizes"][0]])
    return sum(n * statistics.median(by_kind[k]) for k, n in per_round.items())


def space_cache_bytes(matrices):
    """Bytes held by numpy arrays cached on live MatrixSpace instances."""
    total = 0
    for obj in gc.get_objects():
        if isinstance(obj, matrices.MatrixSpace):
            total += sum(v.nbytes for v in vars(obj).values()
                         if hasattr(v, "nbytes"))
    return total


def work_counters(numpy, matrices, workloads):
    """Span-name -> hook(args, kwargs, result) giving work counts.

    Counts come from the call's arguments and result and from closed forms,
    so they stay comparable when the library changes how it does the work.
    """
    def mats(args, kwargs, result):
        M = kwargs.get("mats", args[1] if len(args) > 1 else None)
        shape = numpy.shape(M)[:-2]
        return {"mats": int(numpy.prod(shape))}

    def edges(args, kwargs, result):
        f = args[0] if args else kwargs["f"]
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "exhaustive")
        if mode == "exhaustive":
            return {"edges": workloads.edge_count(f.src_field.q, f.m, f.n)}
        return {"edges": int(kwargs.get("samples", args[2] if len(args) > 2 else 10**5))}

    def centers(args, kwargs, result):
        f = args[0] if args else kwargs["f"]
        ball = 1 + workloads.rank1_count(f.src_field.q, f.m, f.n)
        deg, witness = result
        if not deg:
            return {"centers": ball}
        sp = matrices.space(f.src_field, f.m, f.n)
        codes = numpy.sort(numpy.r_[0, sp.rank1_codes])
        return {"centers": int(numpy.searchsorted(codes, witness[0].encode())) + 1}

    return {"bulk.rank_le1_mask": mats, "homs.is_graph_hom": edges,
            "homs.is_degenerate": centers}


def layer_metrics(names, tracing_mod, tracer, traced, untraced, cache_bytes):
    """Every per-layer metric declared in BENCHMARK.json, from the spans."""
    stats, roots_s = tracing_mod.summarize(tracer.names, *tracer.arrays())
    work = tracer.work
    zero = {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "failed": 0}
    tables = untraced["work"].get("tables", 0)
    centers = untraced["work"].get("centers", 0)
    traced_tables = traced["work"].get("tables", 0)
    traced_centers = traced["work"].get("centers", 0)
    rig_busy = sum(stats.get(f"grassmann.{s}", zero)["busy_s"] for s in (
        "check_rigidity_top", "check_rigidity_step", "check_rigidity_top_cols",
        "check_rigidity_step_cols"))
    derived = {
        "bench.tables_per_s": tables / untraced["wall_s"],
        "bench.centers_per_s": centers / untraced["wall_s"],
        "homs.is_graph_hom.calls_per_table":
            stats.get("homs.is_graph_hom", zero)["calls"] / traced_tables
            if traced_tables else 0.0,
        "recovery.fit_semiaffine.nofit_ratio":
            stats["recovery.fit_semiaffine"]["failed"]
            / stats["recovery.fit_semiaffine"]["calls"]
            if stats.get("recovery.fit_semiaffine", zero)["calls"] else 0.0,
        "grassmann.check_rigidity.busy_s": rig_busy,
        "grassmann.per_center_s": rig_busy / traced_centers if traced_centers else 0.0,
        "matrices.space_cache_bytes": cache_bytes,
        "trace.run_s": statistics.median(traced["round_s"]),
        "trace.untraced_run_s": statistics.median(untraced["round_s"]),
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.root_spans_s": roots_s,
        "trace.spans": len(tracer.name),
    }
    layer_self = {}
    for name, s in stats.items():
        key = f"layer.{name.split('.')[0]}.self_s"
        layer_self[key] = layer_self.get(key, 0.0) + s["self_s"]
    out = {}
    for metric in names:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        if metric.startswith("layer."):
            out[metric] = layer_self.get(metric, 0.0)
            continue
        span, stat = metric.rsplit(".", 1)
        out[metric] = stats.get(span, zero)[stat] if stat in zero else work.get(metric, 0)
    return out


def main(argv=None):
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    numpy, tracing_mod, workloads = import_library()
    import reference
    clock = reference.HostClock()
    import_s, import_ref_s = measure_import(IMPORT_REPS, clock)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    from bfgeo import matrices

    warm_s, warm_ref_s = [], []
    for _ in range(SETUP_REPS):
        ctx = None  # drop the previous warm-up's fields and spaces
        workloads.clear_caches()
        gc.collect()
        w0 = time.perf_counter()
        ctx = workload.setup()
        w1 = time.perf_counter()
        clock.sample()
        warm_s.append(w1 - w0)
        warm_ref_s.append(warm_s[-1] * clock.scale(w0, w1))
    setup_s = import_ref_s + statistics.median(warm_ref_s)

    if args.trace:
        untraced = run_rounds(workload, ctx, args.seed, seconds=args.seconds / 2)
        tracer = tracing_mod.Tracer(work_counters(numpy, matrices, workloads))
        tracer.install()
        try:
            traced = run_rounds(workload, ctx, args.seed, count=len(untraced["round_s"]))
        finally:
            tracer.uninstall()
        cache_bytes = space_cache_bytes(matrices)
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, tracing_mod, tracer, traced, untraced, cache_bytes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        runs = (untraced, traced)
    else:
        workloads.checkpoint = clock.pause
        res = run_rounds(workload, ctx, args.seed, seconds=args.seconds, clock=clock)
        values = {
            "run_s": typical_round(res),
            "items_per_s": len(res["item_ref_s"]) / sum(res["item_ref_s"]),
            "item_p50_s": statistics.median(res["item_ref_s"]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        runs = (res,)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"][:20]:
            print(f"FAILED: {problem}", file=sys.stderr)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "workers": workloads.WORKERS, "rounds": [len(r["round_s"]) for r in runs],
        "item_s": [r["item_s"] for r in runs], "work": [r["work"] for r in runs],
        "item_ref_s": [r.get("item_ref_s") for r in runs],
        "kinds": [r["kinds"] for r in runs],
        "host_speed": clock.speed(), "ref_samples": len(clock.ref),
        "setup_reps_s": warm_s, "import_s": import_s,
        "process_s": time.perf_counter() - t_start,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
