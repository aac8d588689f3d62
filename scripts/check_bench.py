#!/usr/bin/env python3
"""Perf-regression gate for the bench-smoke CI job.

Compares a bench JSON result (the schema written by bench/report.hpp
via `--json`) against the committed baseline and fails on:

  * wall-clock regression beyond --wall-tol   (default +25%),
  * per-point latency regression beyond --latency-tol (default +25%),
  * per-point throughput drop beyond --latency-tol,
  * coverage loss (a baseline series/point missing from the current run),
  * an "engine_compare" entry (bench/idle_drain.cpp) below its own
    min_speedup, or one whose two engines were not bit-identical.

The engine gate is self-contained — every entry carries the speedup it
must reach — so it can also run without a baseline:

    check_bench.py --engine-gate idle_drain.json

Entries on the BASELINE side are never examined; only the current run's
engine_compare is gated.

Only keys present in the BASELINE are compared: new fields, new series,
or new points appearing on the current side (e.g. the per-VC "vc"
metrics object) never fail the gate, so the bench schema can grow
without simultaneously updating the baseline. A baseline point missing
a comparable key is skipped for that key, not an error.

Simulated latency/throughput are deterministic functions of the seed,
so across machines only genuine behavior changes move them; wall-clock
is the machine-dependent half of the gate.

Usage:
    check_bench.py BASELINE CURRENT [--wall-tol F] [--latency-tol F]
    check_bench.py BASELINE CURRENT --update   # rewrite the baseline
    check_bench.py --self-test                 # verify the gate itself

Exit status: 0 ok, 1 regression found, 2 usage/file error.
"""

import argparse
import copy
import json
import shutil
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def index_points(doc):
    """{(series label, x): point dict} for a report.hpp JSON."""
    out = {}
    for series in doc.get("series", []):
        for pt in series.get("points", []):
            out[(series["label"], pt["x"])] = pt
    return out


def engine_failures(cur, out=sys.stdout):
    """Gate the current run's engine_compare entries (idle_drain)."""
    failures = []
    for entry in cur.get("engine_compare", []):
        label = entry.get("label", "?")
        if entry.get("identical") is False:
            failures.append(
                f"engine divergence at {label}: event-engine and "
                f"time-stepped results are not bit-identical")
        speedup = entry.get("speedup")
        need = entry.get("min_speedup")
        if speedup is None or need is None:
            continue
        line = (f"engine-compare {label}: {speedup:.2f}x "
                f"(required >= {need:.2f}x)")
        if speedup < need:
            failures.append(f"{line} — event engine too slow")
        else:
            print(f"check_bench: {line} ok", file=out)
    return failures


def compare(base, cur, wall_tol, latency_tol, out=sys.stdout):
    """All regressions of `cur` vs `base` as a list of strings."""
    failures = engine_failures(cur, out=out)

    if base.get("fast") != cur.get("fast"):
        failures.append(
            f"mode mismatch: baseline fast={base.get('fast')} vs "
            f"current fast={cur.get('fast')} — not comparable")

    bw, cw = base.get("wall_seconds"), cur.get("wall_seconds")
    if bw and cw:
        ratio = cw / bw
        line = (f"wall-clock {bw:.3f}s -> {cw:.3f}s "
                f"({(ratio - 1) * 100:+.1f}%)")
        if ratio > 1.0 + wall_tol:
            failures.append(f"{line} exceeds +{wall_tol * 100:.0f}%")
        else:
            print(f"check_bench: {line} ok", file=out)

    base_pts = index_points(base)
    cur_pts = index_points(cur)
    worst = 0.0
    for key, bpt in sorted(base_pts.items()):
        cpt = cur_pts.get(key)
        label = f"{key[0]} @ {key[1]:g}"
        if cpt is None:
            failures.append(f"point missing from current run: {label}")
            continue
        blat, clat = bpt.get("latency"), cpt.get("latency")
        if blat and clat:
            ratio = clat / blat
            worst = max(worst, ratio)
            if ratio > 1.0 + latency_tol:
                failures.append(
                    f"latency regression at {label}: "
                    f"{blat:.1f} -> {clat:.1f} cycles "
                    f"({(ratio - 1) * 100:+.1f}%)")
        bthr, cthr = bpt.get("throughput"), cpt.get("throughput")
        if bthr and cthr and cthr < bthr * (1.0 - latency_tol):
            failures.append(
                f"throughput drop at {label}: "
                f"{bthr:.4f} -> {cthr:.4f} flits/node/cycle")
    print(f"check_bench: {len(base_pts)} baseline points checked, "
          f"worst latency ratio {worst:.3f}", file=out)
    return failures


def self_test():
    """Exercise the gate against synthetic fixtures. 0 on success."""
    doc = {
        "benchmark": "self-test",
        "fast": True,
        "wall_seconds": 10.0,
        "series": [
            {"label": "TP", "x_name": "offered", "points": [
                {"x": 0.05, "throughput": 0.05, "latency": 100.0},
                {"x": 0.10, "throughput": 0.10, "latency": 150.0},
            ]},
        ],
    }

    cases = []  # (name, baseline, current, expected failure count)

    cases.append(("identical", doc, doc, 0))

    # New current-side content must never fail: extra per-point keys
    # (the "vc" metrics object and the recovery-mode stats object), an
    # extra point, an extra series.
    grown = copy.deepcopy(doc)
    for pt in grown["series"][0]["points"]:
        pt["vc"] = {"samples": 9, "occupancy": 0.1,
                    "per_vc_occupancy": [0.1, 0.2]}
        pt["recovery"] = {"knots": 2, "victims": 2,
                          "heal_retransmits": 2, "heal_escalations": 0,
                          "heal_latency_mean": 40.0,
                          "heal_latency_p95": 96.0}
        pt["p95"] = 200.0
    grown["series"][0]["points"].append(
        {"x": 0.20, "throughput": 0.2, "latency": 300.0})
    grown["series"].append(
        {"label": "TP+recovery", "x_name": "offered", "points": [
            {"x": 0.05, "throughput": 0.05, "latency": 90.0,
             "recovery": {"knots": 0, "victims": 0}}]})
    cases.append(("current grows keys/points/series", doc, grown, 0))

    # A baseline that itself carries a recovery series compares only
    # the shared numeric keys: recovery sub-objects are never diffed,
    # so recovery-stats churn cannot trip the perf gate.
    rec_base = copy.deepcopy(grown)
    rec_cur = copy.deepcopy(grown)
    rec_cur["series"][1]["points"][0]["recovery"] = {
        "knots": 7, "victims": 7, "heal_retransmits": 9,
        "heal_escalations": 1, "heal_latency_mean": 123.0}
    cases.append(("recovery stats churn is not a regression",
                  rec_base, rec_cur, 0))

    # Workload-library keys (bench/report.hpp): per-point rejection and
    # fallback counters, the degenerate marker, the per-class stats
    # array, and the closed-loop object are all new-schema content the
    # gate must treat as inert — in both directions.
    wl = copy.deepcopy(doc)
    for pt in wl["series"][0]["points"]:
        pt["rejected"] = 17
        pt["uniform_fallbacks"] = 3
        pt["classes"] = [
            {"generated": 100, "delivered": 98, "dropped": 2,
             "latency_mean": 120.0},
            {"generated": 40, "delivered": 40, "dropped": 0,
             "latency_mean": 95.0}]
        pt["closed_loop"] = {
            "replies_generated": 40, "replies_delivered": 39,
            "replies_abandoned": 1, "e2e_latency_mean": 260.0,
            "e2e_count": 38}
    wl["series"][0]["points"][0]["degenerate"] = True
    cases.append(("workload keys on the current side are inert",
                  doc, wl, 0))
    wl_churn = copy.deepcopy(wl)
    for pt in wl_churn["series"][0]["points"]:
        pt["rejected"] = 9999
        pt["classes"][0]["latency_mean"] = 5000.0
        pt["closed_loop"]["e2e_latency_mean"] = 5000.0
        pt.pop("degenerate", None)
    cases.append(("workload counter churn is not a regression",
                  wl, wl_churn, 0))

    # Topology annotations (the --topology axis): a current run that
    # labels its series/points with topology geometry must compare
    # clean against a pre-topology baseline, and topology-only churn
    # (renamed geometry, extra dragonfly/express keys) is inert.
    topo = copy.deepcopy(doc)
    topo["topology"] = "torus"
    for s in topo["series"]:
        s["topology"] = "torus"
        s["geometry"] = {"k": 16, "n": 2, "wrap": True}
    for pt in topo["series"][0]["points"]:
        pt["topology"] = "torus"
    cases.append(("topology keys on the current side are inert",
                  doc, topo, 0))
    topo_churn = copy.deepcopy(topo)
    topo_churn["topology"] = "dragonfly"
    for s in topo_churn["series"]:
        s["topology"] = "dragonfly"
        s["geometry"] = {"df_routers": 8, "df_global": 2,
                         "express_gap": 4}
    cases.append(("topology metadata churn is not a regression",
                  topo, topo_churn, 0))
    cases.append(("topology keys in the baseline are never diffed",
                  topo, doc, 0))

    # A baseline point lacking a comparable key is skipped, not fatal.
    sparse = copy.deepcopy(doc)
    for pt in sparse["series"][0]["points"]:
        del pt["latency"]
    del sparse["wall_seconds"]
    cases.append(("baseline missing keys", sparse, doc, 0))

    slow = copy.deepcopy(doc)
    slow["series"][0]["points"][0]["latency"] = 200.0
    cases.append(("latency regression", doc, slow, 1))

    weak = copy.deepcopy(doc)
    weak["series"][0]["points"][1]["throughput"] = 0.01
    cases.append(("throughput drop", doc, weak, 1))

    shrunk = copy.deepcopy(doc)
    shrunk["series"][0]["points"].pop()
    cases.append(("point missing from current", doc, shrunk, 1))

    crawl = copy.deepcopy(doc)
    crawl["wall_seconds"] = 100.0
    cases.append(("wall-clock regression", doc, crawl, 1))

    mixed = copy.deepcopy(doc)
    mixed["fast"] = False
    cases.append(("fast-mode mismatch", doc, mixed, 1))

    # Extra keys riding along in a result JSON are inert for the perf
    # gate: strings and objects the gate does not know, on either side,
    # are never compared values.
    extra = copy.deepcopy(doc)
    extra["shard"] = {"index": 0, "count": 4, "total": 80,
                      "key": "a0b1c2d3e4f50617",
                      "result_digest": "0123456789abcdef"}
    extra["manifest"] = {"tool": "tpnet_verify", "count": 4}
    extra["cache"] = {"hit": True, "dir": "ck-cache"}
    for pt in extra["series"][0]["points"]:
        pt["tail_digest"] = "feedfacecafebeef"
        pt["state_digest"] = "00ddba11deadbea7"
    cases.append(("extra top-level and per-point keys are inert",
                  doc, extra, 0))
    cases.append(("extra keys in the baseline are never diffed",
                  extra, doc, 0))

    # The engine gate (bench/idle_drain.cpp): every entry carries its
    # own required speedup, and both the idle-heavy win and the
    # saturated no-regression bound are expressed the same way.
    eng_ok = copy.deepcopy(doc)
    eng_ok["engine_compare"] = [
        {"label": "idle/zero-load-window", "wall_on": 0.1,
         "wall_off": 1.0, "speedup": 10.0, "min_speedup": 2.0,
         "identical": True},
        {"label": "saturated/load-0.30", "wall_on": 1.0,
         "wall_off": 0.95, "speedup": 0.95, "min_speedup": 0.8,
         "identical": True},
    ]
    cases.append(("engine compare within bounds", doc, eng_ok, 0))

    eng_slow = copy.deepcopy(eng_ok)
    eng_slow["engine_compare"][0]["speedup"] = 1.4
    cases.append(("idle-heavy speedup below 2x", doc, eng_slow, 1))

    eng_sat = copy.deepcopy(eng_ok)
    eng_sat["engine_compare"][1]["speedup"] = 0.7
    cases.append(("saturated regression beyond 25%", doc, eng_sat, 1))

    eng_div = copy.deepcopy(eng_ok)
    eng_div["engine_compare"][0]["identical"] = False
    cases.append(("engine divergence is fatal", doc, eng_div, 1))

    # engine_compare on the baseline side is metadata, never diffed.
    cases.append(("baseline engine_compare is inert", eng_ok, doc, 0))

    # A non-default --wall-tol: a tighter 5% wall bound passes +4% and
    # trips on +8%.
    ok_tight = copy.deepcopy(doc)
    ok_tight["wall_seconds"] = 10.4
    cases.append(("wall +4% passes --wall-tol 0.05",
                  doc, ok_tight, 0, 0.05))
    slow_tight = copy.deepcopy(doc)
    slow_tight["wall_seconds"] = 10.8
    cases.append(("wall +8% trips --wall-tol 0.05",
                  doc, slow_tight, 1, 0.05))

    bad = 0
    for case in cases:
        name, base, cur, want = case[:4]
        wall_tol = case[4] if len(case) > 4 else 0.25
        failures = compare(base, cur, wall_tol=wall_tol,
                           latency_tol=0.25,
                           out=open("/dev/null", "w"))
        status = "ok" if len(failures) == want else "FAIL"
        bad += status == "FAIL"
        print(f"self-test: {name}: expected {want} failure(s), "
              f"got {len(failures)} — {status}")
        if status == "FAIL":
            for f in failures:
                print(f"    ! {f}", file=sys.stderr)

    if bad:
        print(f"check_bench --self-test: {bad} case(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"check_bench --self-test: all {len(cases)} cases passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--wall-tol", type=float, default=0.25,
                    help="allowed fractional wall-clock regression "
                         "(default 0.25 = +25%%)")
    ap.add_argument("--latency-tol", type=float, default=0.25,
                    help="allowed fractional latency regression / "
                         "throughput drop per point (default 0.25)")
    ap.add_argument("--update", action="store_true",
                    help="copy CURRENT over BASELINE and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="run the gate against synthetic fixtures")
    ap.add_argument("--engine-gate", action="store_true",
                    help="gate only the engine_compare entries of a "
                         "single result file (no baseline needed)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.engine_gate:
        path = args.current or args.baseline
        if not path:
            ap.error("--engine-gate needs one result file")
        doc = load(path)
        if not doc.get("engine_compare"):
            print(f"check_bench: no engine_compare entries in {path}",
                  file=sys.stderr)
            return 2
        failures = engine_failures(doc)
        if failures:
            print(f"check_bench: FAIL ({len(failures)} engine "
                  f"regression(s)):", file=sys.stderr)
            for f in failures:
                print(f"  ! {f}", file=sys.stderr)
            return 1
        print("check_bench: PASS — engine gate satisfied")
        return 0
    if not args.baseline or not args.current:
        ap.error("baseline and current are required "
                 "(unless --self-test)")

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"check_bench: baseline {args.baseline} updated from "
              f"{args.current}")
        return 0

    failures = compare(load(args.baseline), load(args.current),
                       args.wall_tol, args.latency_tol)
    if failures:
        print(f"check_bench: FAIL ({len(failures)} regression(s)):",
              file=sys.stderr)
        for f in failures:
            print(f"  ! {f}", file=sys.stderr)
        return 1
    print("check_bench: PASS — no regression vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
