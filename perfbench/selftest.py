"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks, in order:
1. self-time and busy-time arithmetic on a synthetic nested span tree,
   including overlapping children and a recursive call;
2. the tracer wraps every module binding of a function and the methods on
   ``Field``, records parent links, and restores the originals;
3. the correctness gate: a clean standard table passes, and the same table
   with one image changed is counted as a failed item;
4. the host-speed scaling uses the reference samples on both sides of the
   work it scales.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import math
import sys

import run

numpy, tracing, workloads = run.import_library()
np = numpy


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def test_span_arithmetic():
    # 0 root [0,100]: children 1 [10,40] and 2 [30,50] overlap -> cover 40
    #   2 has child 3 [35,45] -> self 20 - 10 = 10
    # 4 root [200,260], a recursive name: child 5 [210,250] same name,
    #   grandchild 6 [220,230] another name
    parent = np.array([-1, 0, 0, 2, -1, 4, 5])
    start = np.array([0, 10, 30, 35, 200, 210, 220])
    end = np.array([100, 40, 50, 45, 260, 250, 230])
    name = np.array([0, 1, 1, 2, 3, 3, 2])
    selfs = tracing.self_times(parent, start, end)
    check(list(selfs) == [60, 30, 10, 10, 20, 30, 10], "self time = duration - union of children")
    # without overlap (spans 4-6) the self times add up to the root duration
    check(int(selfs[4:].sum()) == 60, "self times of a sequential tree add up to its root")
    nested = tracing.nested_in_same(name, parent)
    check(list(nested) == [False, False, False, False, False, True, False],
          "recursive span is flagged as nested")

    t = tracing.Tracer()
    for arr, vals in ((t.name, name), (t.parent, parent), (t.start, start),
                      (t.end, end), (t.failed, [0] * len(name))):
        arr.extend(int(v) for v in vals)
    t.names = ["root", "kid", "leaf", "rec"]
    stats, roots = tracing.summarize(t.names, *t.arrays())
    check(stats["rec"]["busy_s"] == 60e-9 and stats["rec"]["calls"] == 2,
          "busy time counts the outermost recursive span once")
    check(stats["kid"]["self_s"] == 40e-9 and abs(roots - 160e-9) < 1e-15,
          "per-name self time and root total")


def test_tracer_bindings():
    from bfgeo import fields, homs, recovery
    orig = homs.is_graph_hom
    orig_vmul = fields.Field.vmul
    t = tracing.Tracer()
    t.install()
    try:
        check(homs.is_graph_hom is recovery.is_graph_hom and homs.is_graph_hom is not orig,
              "both module bindings of is_graph_hom are wrapped")
        F4 = fields.make_field(2, 2)
        tbl = homs.MapTable.identity(F4, 2, 2)
        ok, _ = recovery.is_graph_hom(tbl)
    finally:
        t.uninstall()
    check(homs.is_graph_hom is orig and recovery.is_graph_hom is orig
          and fields.Field.vmul is orig_vmul, "uninstall restores the originals")
    stats, roots = tracing.summarize(t.names, *t.arrays())
    check(ok and stats["homs.is_graph_hom"]["calls"] == 1, "the call was recorded")
    name, parent, *_ = t.arrays()
    hom_id = t.names.index("homs.is_graph_hom")
    kids = {t.names[i] for i in name[parent == np.nonzero(name == hom_id)[0][0]]}
    check("bulk.adjacent_mask" in kids, "kernel calls are children of is_graph_hom")
    check(stats.get("fields.vsub", {}).get("calls", 0) > 0, "Field methods are wrapped")


def test_gate_catches_corruption():
    from bfgeo import fields, homs
    F4 = fields.make_field(2, 2)
    rng = np.random.default_rng(7)
    p = homs.random_valid_params(rng, F4, 2, 2, F4, 2, 2)
    tbl = homs.standard_table(p)
    problems, _ = run.run_item(lambda: (workloads.check_table(tbl), {}))
    check(problems == [], "a clean standard table passes the gate")

    images = tbl.images.copy()
    images[5, 0] = F4.vadd(images[5, 0], np.array([1, 0], dtype=images.dtype))
    bad = homs.MapTable(F4, 2, 2, F4, 2, 2, images)
    problems, _ = run.run_item(lambda: (workloads.check_table(bad), {}))
    check(len(problems) > 0, f"one changed image row is a failed item: {problems}")


def test_host_clock_scale():
    import reference
    clock = reference.HostClock()
    nominal = reference.NOMINAL_S
    clock.at, clock.ref = [1.0, 2.0, 3.0], [nominal, 2 * nominal, 4 * nominal]
    close = math.isclose
    check(close(clock.scale(1.2, 1.8), 1 / 1.5), "work between two samples uses their mean")
    check(close(clock.scale(1.5, 2.5), 1 / 2.5),
          "work spanning a sample uses the samples outside it")
    check(close(clock.scale(0.5, 0.9), 1.0) and close(clock.scale(3.5, 4.0), 1 / 4),
          "work before the first or after the last sample uses the nearest one")
    check(close(clock.speed(), 0.5), "host speed is nominal over the median sample")


def main():
    try:
        test_span_arithmetic()
        test_tracer_bindings()
        test_gate_catches_corruption()
        test_host_clock_scale()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
