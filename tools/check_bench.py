#!/usr/bin/env python3
"""Bench-JSON regression gate.

Compares a fresh bench JSON against its committed baseline in
bench/results/. The fresh JSON must keep the baseline's structure (same
keys, same list lengths, compatible types), and every row of GATES that
names one of its fields must hold. Baseline-relative rows catch "the
optimization is gone", not a 20% wobble on a noisy CI host. Absolute
rows state claims that hold on every host, so they also bite when a
JSON is gated against itself. Fields without a row are tolerated, so a
bench can add fields without touching this file.

Usage:  check_bench.py BASELINE.json FRESH.json [more pairs ...]
        check_bench.py --self-test
Exit:   0 all gates pass, 1 otherwise (every violation is printed).
"""

import json
import os
import sys
from collections import namedtuple
from fnmatch import fnmatchcase

# One gate row.
#   key    space-separated field specs, each checked in every dict that
#          has the field. "a|b" and globs ("*_us") name alternatives:
#          the spec holds if any field it names holds.
#   kind   a key of KINDS.
#   bound  the kind's factor or absolute value (None for same/type).
#   reason why the bound holds; printed with every violation.
#   bench  "benchmark" names the row is scoped to (None: every bench). A
#          scoped row fails when the bench's JSON lacks its field.
#   slack  absolute floor under a "ceil" row's ceiling.
#   when   a sibling field that must be truthy for the row to apply.
Row = namedtuple("Row", "key kind bound reason bench slack when",
                 defaults=(None, 0.0, None))

# kind -> (holds(fresh, base, row), the bound as text)
KINDS = {
    "type": (lambda f, b, r: True, "only its type"),
    "same": (lambda f, b, r: f == b, "== baseline {b!r}"),
    "floor": (lambda f, b, r: f >= r.bound * b,
              ">= {r.bound} x baseline {b:.3g}"),
    "ceil": (lambda f, b, r: f <= max(r.slack, r.bound * b),
             "<= max({r.slack}, {r.bound} x baseline {b:.3g})"),
    "min": (lambda f, b, r: f >= r.bound, ">= {r.bound}"),
    "max": (lambda f, b, r: f <= r.bound, "<= {r.bound}"),
    "eq": (lambda f, b, r: f == r.bound, "== {r.bound!r}"),
}

MATRIX, KDISP = ("bench_matrix",), ("bench_kdisp",)
GATES = [
    Row("benchmark n samples lanes units samples_per_unit curve_n", "same",
        None, "sweep shape: a silently shrunk sweep fails"),
    Row("jobs seed trace_kinds trace_priorities trace10k_jobs", "same", None,
        "the fixed-seed arrival traces replay structurally unchanged"),
    Row("dist_n dist_total_grains dist_grains_counted kill_grains "
        "kill_executed_grains", "same", None, "every grain is accounted for"),
    Row("transfer_samples payload_min_bytes payload_max_bytes", "same", None,
        "the G_p(x) transfer sweep keeps its sizes"),
    Row("pipeline_depth pipeline_units pipeline_grains pipeline_chunk_grains "
        "pipeline_kill_executed_grains", "same", None, "pipeline leg shape"),
    Row("cell cells mode schedulers tie_tolerance total_grains replay",
        "same", None, "chaos grid cells, grid shape and scheduler roster"),
    Row("family variants", "same", None, "kernel families and ISA variants"),
    Row("hardware_concurrency *_us *gflops", "type", None,
        "machine-dependent: core count and absolute timings"),
    Row("speedup", "floor", 0.20,
        "the optimized path still beats its reference several-fold"),
    Row("overhead_ratio parallel_speedup cache_speedup", "floor", 0.05,
        "pool dispatch, fit fan-out and the fit cache still pay off"),
    Row("probing_saved_ratio", "floor", 0.25,
        "the warm start still saves the cold run's probing blocks"),
    Row("transfer_r2", "floor", 0.75,
        "G_p(x) still fits the measured loopback wire timings"),
    Row("max_rel_diff max_abs_diff", "ceil", 100.0,
        "the residual against the reference has not blown up", slack=1e-6),
    Row("stretch_p50 stretch_p95 stretch_p99 queue_wait_p50 queue_wait_p95 "
        "queue_wait_p99", "ceil", 1.5, "10k-trace tails (virtual time); the "
        "slack absorbs near-zero waits", slack=1.0),
    Row("pipelined_vs_sync_makespan_ratio", "max", 0.75,
        "the pipelined window beats the depth-1 round-trip by >= 25%"),
    Row("warm_vs_cold_makespan_ratio", "max", 1.05,
        "a warm start never costs more than 5% makespan over the cold run"),
    Row("row_cost_ratio", "max", 4.0, "a 1-row GEMM call costs <= 4x a row "
        "of the full product (~15x if B is repacked per call)"),
    Row("lost_grains pipeline_lost_grains", "eq", 0,
        "a fault may requeue work but never lose a grain"),
    Row("bit_identical pipeline_bit_identical", "eq", True,
        "the distributed product is bit-identical to the local one"),
    Row("demoted pipeline_demoted", "eq", True,
        "the frozen worker is detected and demoted"),
    Row("pipeline_grains_exact", "eq", True,
        "both pipeline legs executed and verified every grain"),
    Row("replay_identical", "eq", True, "a re-run from the seed or cell id "
        "reproduces its result", bench=("bench_service", "bench_matrix")),
    Row("lost_grain_violations", "eq", 0, "no grid cell lost a grain",
        bench=MATRIX),
    Row("win_rate", "min", 0.40, "PLB-HeC beats or ties the best baseline on "
        ">= 40% of the grid cells", bench=MATRIX),
    Row("cpu_r2|gpu_r2", "min", 0.95, "each family fits its device curve on "
        "at least one unit class", bench=KDISP),
    Row("distinct_subsets", "min", 2,
        "the families are not copies of one profile", bench=KDISP),
    Row("isa_identical", "eq", True,
        "reduction families are byte-identical across ISA variants",
        bench=KDISP),
    Row("best_isa_speedup", "min", 1.3, "on a SIMD host the best variant "
        "beats forced-scalar by >= 1.3x", bench=KDISP, when="simd_host"),
]
RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "bench", "results")


def named(fields, spec):
    """The fields a key spec names ("a|b", globs allowed)."""
    return [k for k in fields
            if any(fnmatchcase(k, p) for p in spec.split("|"))]


def check_pair(base, fresh, label):
    """Structural compare plus every row of GATES scoped to this JSON.
    Returns [(gate, message)], where gate is the (row, key spec) that
    failed or None for a structural break or a missing field; empty =
    pass. A failure inside a list element with a "replay" field prints
    that command."""
    bench = fresh.get("benchmark") if isinstance(fresh, dict) else None
    rows = [r for r in GATES if r.bench is None or bench in r.bench]
    errors = []

    def compare(base, fresh, path, hint):
        def fail(gate, where, message):
            errors.append((gate, f"  {where}: {message}{hint}"))

        if type(base) is not type(fresh) and not (
                isinstance(base, (int, float)) and
                isinstance(fresh, (int, float))):
            fail(None, path, f"type changed: {type(base).__name__} -> "
                             f"{type(fresh).__name__}")
            return
        if isinstance(base, list):
            if len(base) != len(fresh):
                fail(None, path, f"sweep length {len(base)} -> {len(fresh)}")
                return
            for i, (b, f) in enumerate(zip(base, fresh)):
                cell = isinstance(f, dict) and "replay" in f
                compare(b, f, f"{path}[{i}]",
                        f"; replay: {f['replay']}" if cell else hint)
            return
        if not isinstance(base, dict):
            return
        if set(base) != set(fresh):
            fail(None, path, f"keys changed (missing="
                             f"{sorted(set(base) - set(fresh))}, extra="
                             f"{sorted(set(fresh) - set(base))})")
            return
        for key in base:
            compare(base[key], fresh[key], f"{path}.{key}", hint)
        for row in rows:
            for spec in row.key.split():
                names = named(fresh, spec)
                if not names or row.when and not fresh.get(row.when):
                    continue
                holds, bound = KINDS[row.kind]
                if not any(holds(fresh[k], base[k], row) for k in names):
                    shown = ", ".join(f"{k}={fresh[k]!r}" for k in names)
                    bound = bound.format(b=base[names[0]], r=row)
                    fail((row, spec), path,
                         f"{shown} breaks {bound} -- {row.reason}")

    compare(base, fresh, label, "")
    present = set(field_names(fresh))
    for row in rows:
        for spec in row.key.split() if row.bench else ():
            if not named(present, spec):
                errors.append((None, f"  {label}: {spec} missing -- "
                                     f"{row.reason}"))
    return errors


def load_json(path, role):
    """Loads one bench JSON, or returns (None, message) naming the exact
    file and the likely cause -- a missing fresh file usually means the
    bench binary crashed before writing its output."""
    try:
        with open(path) as f:
            return json.load(f), None
    except FileNotFoundError:
        hint = ("was it committed to bench/results/?" if role == "baseline"
                else "did the bench binary run and write its --out file?")
        return None, f"{role} JSON missing: {path} ({hint})"
    except OSError as exc:
        return None, f"cannot read {role} JSON {path}: {exc}"
    except json.JSONDecodeError as exc:
        return None, (f"{role} JSON unparseable: {path}: {exc} "
                      "(truncated write or non-JSON output?)")


def field_names(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from field_names(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from field_names(value)


def dead_specs():
    """Key specs of GATES that no committed baseline of their benches
    carries: such a row can never fire."""
    fields = {}
    for name in sorted(os.listdir(RESULTS)):
        if name.endswith(".json"):
            doc, _ = load_json(os.path.join(RESULTS, name), "baseline")
            fields[doc["benchmark"]] = set(field_names(doc))
    dead = []
    for row in GATES:
        pool = set().union(*(fields.get(b, ()) for b in row.bench or fields))
        dead += [p for spec in row.key.split() for p in spec.split("|")
                 if not named(pool, p)]
    return dead


def self_test():
    """Pytest-free sanity check of the gate itself (run by ctest and CI).

    Each case runs check_pair() on a baseline/fresh pair and asserts
    whether it must flag a violation. Catches regressions in the gate
    logic before a silently-green gate waves a real regression through.
    Two guards keep the table honest: every key of GATES occurs in a
    committed baseline, and every bound-carrying key spec is flagged by
    at least one must-flag case.
    """
    baseline = {
        "benchmark": "bench_service",
        "jobs": 12, "units": 4, "seed": 42,
        "trace_kinds": "matmul-1024,bs-300k",
        "trace_priorities": "high,normal",
        "replay_identical": True,
        "probing_saved_ratio": 0.98,
        "speedup": 4.0,
        "max_rel_diff": 1e-12,
        "run_us": 120.0,
        "arrival_times": [0.1, 0.2],
        # 10k-trace fields (bench_service 10k-job section).
        "trace10k_jobs": 10000,
        "trace10k_order_digest": "8806bf5d731c1879",
        "stretch_p99": 5134.4,
        "queue_wait_p50": 0.17,
        "queue_wait_p99": 268.2,
        "warm_vs_cold_makespan_ratio": 0.99,
        # bench_net-shaped facts ride along in the same baseline so the
        # transport gates are exercised by the same case table.
        "transfer_r2": 0.90,
        "bit_identical": True,
        "lost_grains": 0,
        "demoted": True,
        "pipelined_vs_sync_makespan_ratio": 0.55,
        "pipeline_grains_exact": True,
        "pipeline_bit_identical": True,
        "pipeline_lost_grains": 0,
        "pipeline_demoted": True,
        # bench_kernels gemm_rows: thin-row cost over full-product cost.
        "row_cost_ratio": 2.5,
    }

    def variant(**overrides):
        return dict(baseline, **overrides)

    dropped = dict(baseline)
    del dropped["probing_saved_ratio"]
    cases = [
        # (label, fresh, must_flag)
        ("identical json passes", variant(), False),
        ("machine-dependent *_us may drift", variant(run_us=9000.0), False),
        ("non-identity floats may wobble",
         variant(arrival_times=[0.1, 0.200001], probing_saved_ratio=0.9),
         False),
        ("collapsed probing_saved_ratio fails",
         variant(probing_saved_ratio=0.01), True),
        ("collapsed speedup fails", variant(speedup=0.1), True),
        ("blown-up residual fails", variant(max_rel_diff=0.5), True),
        ("changed arrival-trace kinds fail",
         variant(trace_kinds="matmul-1024,grn-10k"), True),
        ("changed priorities fail",
         variant(trace_priorities="low,normal"), True),
        ("shrunk job count fails", variant(jobs=6), True),
        ("diverged replay fails", variant(replay_identical=False), True),
        ("dropped key fails structurally", dropped, True),
        ("shrunk sweep fails", variant(arrival_times=[0.1]), True),
        ("wobbling transfer_r2 passes", variant(transfer_r2=0.82), False),
        ("collapsed transfer_r2 fails", variant(transfer_r2=0.3), True),
        ("lost grains fail", variant(lost_grains=17), True),
        ("diverged distributed result fails",
         variant(bit_identical=False), True),
        ("undetected dead worker fails", variant(demoted=False), True),
        ("makespan ratio 0.74 under absolute ceiling passes even far "
         "from baseline",
         variant(pipelined_vs_sync_makespan_ratio=0.74), False),
        ("makespan ratio 0.76 over absolute ceiling fails",
         variant(pipelined_vs_sync_makespan_ratio=0.76), True),
        ("lost pipelined grains fail", variant(pipeline_lost_grains=3),
         True),
        ("diverged pipelined distributed result fails",
         variant(pipeline_bit_identical=False), True),
        ("incomplete pipeline comparison fails",
         variant(pipeline_grains_exact=False), True),
        ("undetected dead pipelined worker fails",
         variant(pipeline_demoted=False), True),
        ("tail within 1.5x ceiling passes",
         variant(stretch_p99=7000.0), False),
        ("tail beyond 1.5x ceiling fails",
         variant(stretch_p99=8000.0), True),
        ("near-zero queue wait rides the absolute slack",
         variant(queue_wait_p50=0.9), False),
        ("queue-wait tail beyond ceiling fails",
         variant(queue_wait_p99=450.0), True),
        ("row cost ratio 3.9 under absolute ceiling passes",
         variant(row_cost_ratio=3.9), False),
        ("row cost ratio 4.1 over absolute ceiling fails",
         variant(row_cost_ratio=4.1), True),
        ("warm run 4% over cold passes the absolute ceiling",
         variant(warm_vs_cold_makespan_ratio=1.04), False),
        ("warm run 6% over cold fails the absolute ceiling",
         variant(warm_vs_cold_makespan_ratio=1.06), True),
        ("changed 10k digest is informational, not gated",
         variant(trace10k_order_digest="0000000000000000"), False),
        ("shrunk 10k trace fails", variant(trace10k_jobs=1000), True),
    ]

    def matrix_row(cell, win, vs_best, lost=0):
        return {"cell": cell, "units": 4, "total_grains": 8192,
                "plb_win": win, "plb_vs_best": vs_best,
                "best_baseline": "HDSS", "lost_grains": lost,
                "grains_requeued": 0, "failed_units": 0, "rebalances": 1,
                "solves": 3, "probe_overhead": 0.11,
                "makespan_plb_hec_s": 1.0 * vs_best,
                "makespan_hdss_s": 1.0,
                "replay": f"./build/bench/bench_matrix --cell '{cell}'"}

    matrix_base = {
        "benchmark": "bench_matrix", "mode": "smoke",
        "schedulers": "PLB-HeC,HDSS,Acosta,Greedy,StaticProfile",
        "cells": 2, "tie_tolerance": 0.02, "wins": 1, "win_rate": 0.5,
        "lost_grain_violations": 0, "replay_identical": True,
        "rows": [matrix_row("u4-mild/regular/none@1", True, 0.97),
                 matrix_row("u8-extreme/mixed/kill1@1", False, 1.1)],
    }
    matrix_cases = [
        ("identical matrix passes", dict(matrix_base), False),
        ("makespan drift in a row passes",
         dict(matrix_base, rows=[matrix_row("u4-mild/regular/none@1", True,
                                            0.99),
                                 matrix_base["rows"][1]]), False),
        ("win_rate above absolute floor passes even below baseline",
         dict(matrix_base, wins=1, win_rate=0.45), False),
        ("win_rate below 0.40 floor fails",
         dict(matrix_base, wins=0, win_rate=0.3,
              rows=[matrix_row("u4-mild/regular/none@1", False, 1.05),
                    matrix_base["rows"][1]]), True),
        ("lost-grain violation count fails",
         dict(matrix_base, lost_grain_violations=1), True),
        ("per-row lost grain fails",
         dict(matrix_base, rows=[matrix_base["rows"][0],
                                 matrix_row("u8-extreme/mixed/kill1@1",
                                            False, 1.1, lost=3)]), True),
        ("diverged cell replay fails",
         dict(matrix_base, replay_identical=False), True),
        ("renamed cell fails identity",
         dict(matrix_base, rows=[matrix_row("u4-extreme/regular/none@1",
                                            True, 0.97),
                                 matrix_base["rows"][1]]), True),
        ("shrunk grid fails structurally",
         dict(matrix_base, rows=[matrix_base["rows"][0]]), True),
        ("changed scheduler roster fails identity",
         dict(matrix_base, schedulers="PLB-HeC,HDSS"), True),
        ("loosened tie tolerance fails identity",
         dict(matrix_base, tie_tolerance=0.1), True),
    ]

    def kdisp_fit_row(family, cpu_r2, gpu_r2):
        return {"family": family, "curve_n": 24, "cpu_r2": cpu_r2,
                "cpu_terms": "1+x", "gpu_r2": gpu_r2,
                "gpu_terms": "1+x+ln(x)"}

    kdisp_base = {
        "benchmark": "bench_kdisp", "hardware_concurrency": 1,
        "host_isa": "avx512", "effective_isa": "avx512",
        "simd_host": True, "variants": 13,
        "fit": [kdisp_fit_row("spmv", 1.0, 0.99),
                kdisp_fit_row("stencil", 1.0, 0.99),
                kdisp_fit_row("nbody", 1.0, 0.99),
                kdisp_fit_row("matmul", 1.0, 0.99)],
        "fit_r2_min": 0.99, "distinct_subsets": 3,
        "kernels": [
            {"family": "spmv", "variant": "spmv_rows_avx2", "isa": "avx2",
             "scalar_ms": 0.9, "best_ms": 0.7, "kernel_speedup": 1.2,
             "identical": True},
            {"family": "gemm", "variant": "gemm_micro_avx2", "isa": "avx2",
             "scalar_ms": 2.9, "best_ms": 1.3, "kernel_speedup": 2.3,
             "identical": False, "max_rel_diff": 2e-11},
        ],
        "best_isa_speedup": 2.3, "isa_identical": True,
    }
    kdisp_cases = [
        ("identical kdisp passes", dict(kdisp_base), False),
        ("resolved ISA and timings may differ per machine",
         dict(kdisp_base, host_isa="avx2", effective_isa="scalar",
              best_isa_speedup=1.4), False),
        ("family R^2 below floor on both classes fails",
         dict(kdisp_base, fit=[kdisp_fit_row("spmv", 0.8, 0.9)] +
              kdisp_base["fit"][1:]), True),
        ("low CPU R^2 passes while the GPU class fits",
         dict(kdisp_base, fit=[kdisp_fit_row("spmv", 0.5, 0.99)] +
              kdisp_base["fit"][1:]), False),
        ("collapsed subset diversity fails",
         dict(kdisp_base, distinct_subsets=1), True),
        ("diverged reduction-family results fail",
         dict(kdisp_base, isa_identical=False), True),
        ("speedup under floor on a SIMD host fails",
         dict(kdisp_base, best_isa_speedup=1.1), True),
        ("speedup ~1 on a scalar-only host passes",
         dict(kdisp_base, simd_host=False, best_isa_speedup=1.0), False),
        ("blown-up gemm residual fails",
         dict(kdisp_base, kernels=[kdisp_base["kernels"][0],
                                   dict(kdisp_base["kernels"][1],
                                        max_rel_diff=0.5)]), True),
        ("renamed family fails identity",
         dict(kdisp_base, fit=[kdisp_fit_row("spmv2", 1.0, 0.99)] +
              kdisp_base["fit"][1:]), True),
        ("shrunk variant roster fails identity",
         dict(kdisp_base, variants=9), True),
    ]

    # Drift floors and tail ceilings the tables above leave unexercised:
    # each perturbation alone must trip its row.
    drift_base = {"overhead_ratio": 96.3, "parallel_speedup": 1.0,
                  "cache_speedup": 1257.4, "max_abs_diff": 0.0,
                  "stretch_p50": 6.5, "stretch_p95": 3388.0,
                  "queue_wait_p50": 0.21, "queue_wait_p95": 193.3}
    drift_cases = [(f"{key}={value} fails", dict(drift_base, **{key: value}),
                    True) for key, value in (
        ("overhead_ratio", 4.0), ("parallel_speedup", 0.04),
        ("cache_speedup", 50.0), ("max_abs_diff", 1e-3),
        ("stretch_p50", 10.0), ("stretch_p95", 5100.0),
        ("queue_wait_p50", 1.2), ("queue_wait_p95", 300.0))]

    results, fired = [], set()
    for base_doc, table in ((baseline, cases), (matrix_base, matrix_cases),
                            (kdisp_base, kdisp_cases),
                            (drift_base, drift_cases)):
        for label, fresh, must_flag in table:
            errors = check_pair(base_doc, fresh, "self-test")
            if must_flag:
                fired.update(gate for gate, _ in errors if gate)
            results.append((f"{label} (flagged={bool(errors)}, "
                            f"expected={must_flag})",
                            bool(errors) == must_flag))

    # The missing-file path must fail loudly, not crash.
    rc = main(["check_bench.py", "/nonexistent-baseline.json",
               "/nonexistent-fresh.json"])
    results.append((f"missing bench JSON exits 1 (rc={rc})", rc == 1))
    unflagged = [spec for row in GATES if row.kind not in ("same", "type")
                 for spec in row.key.split() if (row, spec) not in fired]
    results.append((f"every bound is flagged by a case (unflagged: "
                    f"{unflagged})", not unflagged))
    dead = dead_specs()
    results.append((f"every gate key occurs in a committed baseline "
                    f"(dead: {dead})", not dead))

    failures = 0
    for label, ok in results:
        failures += not ok
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
    if failures:
        print(f"self-test FAILED ({failures} case(s))")
        return 1
    print(f"self-test OK ({len(results)} cases)")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 3 or len(argv) % 2 == 0:
        print(__doc__)
        return 2
    failures = 0
    for i in range(1, len(argv), 2):
        base_path, fresh_path = argv[i], argv[i + 1]
        base, base_err = load_json(base_path, "baseline")
        fresh, fresh_err = load_json(fresh_path, "fresh")
        if base_err or fresh_err:
            print(f"FAIL {base_path} vs {fresh_path}:")
            for err in (base_err, fresh_err):
                if err:
                    print(f"  {err}")
            failures += 1
            continue
        errors = check_pair(base, fresh, base.get("benchmark", base_path))
        if errors:
            print(f"FAIL {fresh_path} regressed against {base_path}:")
            print("\n".join(message for _, message in errors))
            failures += 1
        else:
            print(f"OK   {fresh_path} within tolerance of {base_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
