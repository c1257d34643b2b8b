"""Summarise a span file written by a traced run.

    python3 perfbench/spans.py perfbench/out/spans-maps-gf5-seed1.npz [--top 25]

Prints the span names with the most self time, and per-call figures for the
layer costs that matter most on GF(5) 2x3 -> 3x4 tables: the adjacency mask
inside ``is_graph_hom`` (one call per half rank-1 increment, each over the
whole 15 625-point space), and ``is_graph_hom``, ``is_degenerate`` and
``recover_standard`` per call.  Traced figures include the tracing overhead
that the traced run reports as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args(argv)

    with np.load(args.path) as z:
        names = [str(n) for n in z["names"]]
        name, parent, start, end, failed = (z[k] for k in ("name", "parent", "start",
                                                           "end", "failed"))
    stats, roots_s = tracing.summarize(names, name, parent, start, end, failed)
    dur = end - start

    print(f"{len(name)} spans, roots cover {roots_s:.3f} s")
    print(f"{'span':44s} {'calls':>8s} {'self_s':>9s} {'busy_s':>9s} {'busy/call':>11s}")
    top = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:args.top]
    for nm, st in top:
        print(f"{nm:44s} {st['calls']:8d} {st['self_s']:9.3f} {st['busy_s']:9.3f} "
              f"{st['busy_s'] / st['calls'] * 1e3:9.3f}ms")

    def per_call(nm, under=None):
        if nm not in names:
            return None
        sel = name == names.index(nm)
        if under is not None:
            if under not in names:
                return None
            sel &= (parent >= 0) & (name[np.maximum(parent, 0)] == names.index(under))
        return dur[sel].mean() / 1e9 if sel.any() else None

    print("\nper-call figures (s):")
    for span, under in (("bulk.adjacent_mask", "homs.is_graph_hom"),
                        ("bulk.rank_le1_mask", "bulk.adjacent_mask"),
                        ("homs.is_graph_hom", None), ("homs.is_degenerate", None),
                        ("recovery.recover_standard", None)):
        fig = per_call(span, under)
        label = span if under is None else f"{span} inside {under}"
        print(f"  {label:44s} {'-' if fig is None else f'{fig:.4f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
