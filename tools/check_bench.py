#!/usr/bin/env python3
"""Bench-JSON regression gate.

Compares a freshly produced bench JSON (bench_kernels / bench_fit /
bench_observe --smoke output) against the committed baseline in
bench/results/ and fails when a machine-independent *ratio* has
collapsed or a correctness residual has blown up.

Absolute timings (``*_us``, ``*gflops``) and machine facts
(``hardware_concurrency``) are machine-dependent and are only checked
structurally (key present, right type). Ratio keys are compared with
generous floors -- CI machines are noisy and slower than the machine
that produced the committed numbers; the gate is meant to catch "the
optimization is gone", not a 20% wobble:

* ``speedup``              fresh >= 0.20 x baseline
* ``overhead_ratio``       fresh >= 0.05 x baseline
* ``parallel_speedup``     fresh >= 0.05 x baseline
* ``cache_speedup``        fresh >= 0.05 x baseline
* ``overhead_pct``         fresh <= max(2.0, 2 x baseline)  (cost, lower=better)
* ``max_rel_diff``         fresh <= max(1e-6, 100 x baseline)
* ``max_abs_diff``         fresh <= max(1e-6, 100 x baseline)
* ``probing_saved_ratio``  fresh >= 0.25 x baseline  (bench_service:
  probing blocks the warm start saved relative to the cold run's total)
* ``transfer_r2``          fresh >= 0.75 x baseline  (bench_net: G_p(x)
  fit quality over measured loopback wire timings)

Tail-latency keys from the 10k-job trace (``stretch_p50/p95/p99``,
``queue_wait_p50/p95/p99``) are *virtual-time* and deterministic for a
given build, but legitimately move when scheduler policy changes; they
carry a ceiling of ``max(abs_slack, 1.5 x baseline)`` (lower = better,
and the absolute slack keeps near-zero queue waits from tripping on
noise-sized absolute shifts).

``warm_vs_cold_makespan_ratio`` (bench_service) carries an *absolute*
1.05 ceiling: the warm start must never cost more than 5% makespan over
the cold run on the same trace, independent of the baseline.

``pipelined_vs_sync_makespan_ratio`` (bench_net) carries an *absolute*
0.75 ceiling independent of the baseline: the pipelined data plane must
beat the synchronous protocol by at least 25% on the machine running
the gate, not merely stay in the baseline's neighborhood.

``row_cost_ratio`` (bench_kernels ``gemm_rows``) carries an *absolute*
4.0 ceiling: a 1-row GEMM call at n=1024 may cost at most 4x the per-row
time of a full 1024-row product. Without the row-streaming path a 1-row
call repacks all of B and the ratio sits near 15.

``bench_matrix`` JSONs (the scenario-grid chaos harness) additionally
pass through :class:`WinRateGate`, which is *absolute* rather than
baseline-relative: ``win_rate`` (the fraction of grid cells where
PLB-HeC beats or ties the best of the four baselines) must stay at or
above 0.40, ``lost_grain_violations`` must be exactly 0 -- a fault
script may requeue work but must never lose a grain -- and
``replay_identical`` must be true (the harness re-runs its first cell
from the cell id alone and byte-compares the row). When the gate
fails it prints the exact replay command for every offending cell
(``./build/bench/bench_matrix --cell '<id>'``) so the failure
reproduces locally from the CI log alone. Per-cell makespans are
deterministic per build but drift across compilers, so they are not
identity-checked; the cell ids, grid shape and scheduler roster are.

``bench_kdisp`` JSONs (kernel-dispatch registry + workload families)
pass through :class:`KdispGate`, also absolute: every family must fit
its simulated device curve with ``R^2 >= 0.95`` on at least one unit
class, at least two distinct winning basis subsets must appear across
the families (``distinct_subsets``), the reduction families must stay
byte-identical across ISA variants (``isa_identical``), and on a host
with vector units (``simd_host``) the best registered variant must
beat forced-scalar by ``best_isa_speedup >= 1.3`` on at least one
family. Per-variant timings and the resolved ISA names are
machine-dependent and unchecked beyond structure; the gemm row's
``max_rel_diff`` (the documented FMA exception) rides the usual
residual ceiling.

Identity keys (``n``, ``samples``, ``lanes``, ``units``, ...) and the
overall JSON structure must match exactly, so a silently shrunk sweep
also fails the gate. For bench_service the arrival trace itself is
identity-checked (``trace_kinds``, ``trace_priorities``, ``jobs``,
``replay_identical``): the fixed-seed trace must replay structurally
unchanged, and the two warm replays must have agreed exactly. The
10k-job trace is identity-checked on its shape (``trace10k_jobs``)
but *not* on ``trace10k_order_digest``: the digest is deterministic
per build yet moves with any scheduler-policy change, so it is
published for replay debugging rather than gated. For
bench_net the correctness facts are identity-checked
(``bit_identical``, ``lost_grains``, ``demoted``, and their
``pipeline_*`` twins): the distributed product must stay bit-identical
under both protocols and both worker-kill runs must keep losing zero
grains.

Usage:  check_bench.py BASELINE.json FRESH.json [more pairs ...]
        check_bench.py --self-test
Exit:   0 all gates pass, 1 otherwise (every violation is printed).
"""

import json
import sys

# key -> (kind, factor); kind "floor" = fresh >= factor * base,
# "ceil" = fresh <= max(abs_floor, factor * base).
RATIO_GATES = {
    "speedup": ("floor", 0.20),
    "overhead_ratio": ("floor", 0.05),
    "parallel_speedup": ("floor", 0.05),
    "cache_speedup": ("floor", 0.05),
    "probing_saved_ratio": ("floor", 0.25),
    "transfer_r2": ("floor", 0.75),
}
CEIL_GATES = {
    "overhead_pct": 2.0,  # abs ceiling; recording must stay under 2%
    "max_rel_diff": 1e-6,
    "max_abs_diff": 1e-6,
}
# Tail-latency ceilings (virtual time, lower = better):
# fresh <= max(abs_slack, factor * base). The absolute slack keeps
# near-zero baselines (an idle-ish queue wait) from failing on tiny
# absolute shifts.
TAIL_GATES = {
    "stretch_p50": (1.0, 1.5),
    "stretch_p95": (1.0, 1.5),
    "stretch_p99": (1.0, 1.5),
    "queue_wait_p50": (1.0, 1.5),
    "queue_wait_p95": (1.0, 1.5),
    "queue_wait_p99": (1.0, 1.5),
}
# Hard absolute ceilings: fresh <= ceiling regardless of the baseline.
# A perf claim the repo makes unconditionally, not a drift guard.
ABS_CEIL_GATES = {
    "pipelined_vs_sync_makespan_ratio": 0.75,
    "warm_vs_cold_makespan_ratio": 1.05,
    "row_cost_ratio": 4.0,
}
class WinRateGate:
    """Absolute gate for bench_matrix (scenario-grid chaos harness) JSONs.

    Unlike the drift gates above, nothing here is relative to the
    committed baseline: the grid's claims hold on every machine or the
    gate fails. Three clauses:

    * ``win_rate >= FLOOR`` -- PLB-HeC beats-or-ties the best baseline
      on at least this fraction of grid cells (committed smoke baseline
      sits at 0.45; the floor leaves one cell of cross-compiler slack).
    * ``lost_grain_violations == 0`` and every row's ``lost_grains == 0``
      -- faults may requeue in-flight work, never lose it.
    * ``replay_identical`` is true -- the harness's own proof that a
      cell re-run from its id reproduces its row byte-for-byte.

    Every offending cell's replay command is printed so a CI failure
    reproduces locally with one copy-paste.
    """

    FLOOR = 0.40

    @staticmethod
    def _replay(row):
        return row.get("replay", "./build/bench/bench_matrix --cell '%s'"
                       % row.get("cell", "?"))

    def check(self, doc, errors):
        rows = doc.get("rows")
        missing = [k for k in ("win_rate", "lost_grain_violations",
                               "replay_identical", "rows")
                   if k not in doc]
        if missing or not isinstance(rows, list):
            fail(errors, "bench_matrix",
                 f"summary keys missing or malformed: {missing or 'rows'}")
            return
        if doc["lost_grain_violations"] != 0:
            fail(errors, "bench_matrix",
                 f"{doc['lost_grain_violations']} lost-grain violation(s)")
        for row in rows:
            if row.get("lost_grains", 0) != 0:
                fail(errors, f"bench_matrix.{row.get('cell', '?')}",
                     f"{row['lost_grains']} grain(s) lost; replay: "
                     f"{self._replay(row)}")
        if not doc["replay_identical"]:
            fail(errors, "bench_matrix",
                 "replay_identical is false: a cell re-run from its id "
                 "diverged from its row; replay: " +
                 (self._replay(rows[0]) if rows else "?"))
        if doc["win_rate"] < self.FLOOR:
            fail(errors, "bench_matrix",
                 f"win_rate {doc['win_rate']:.2f} below absolute floor "
                 f"{self.FLOOR:.2f}; losing cells:")
            for row in rows:
                if not row.get("plb_win", False):
                    fail(errors, f"bench_matrix.{row.get('cell', '?')}",
                         f"plb/best={row.get('plb_vs_best', float('nan')):.3f}"
                         f" vs {row.get('best_baseline', '?')}; replay: "
                         f"{self._replay(row)}")


class KdispGate:
    """Absolute gate for bench_kdisp (kernel-dispatch registry) JSONs.

    The repo's dispatch claims hold on every machine, not relative to
    the committed baseline:

    * every family fits its simulated device curve with ``R^2 >=
      R2_FLOOR`` on at least one unit class (CPU or GPU) -- the profile
      fitter can actually learn each family's curve;
    * ``distinct_subsets >= SUBSET_FLOOR`` -- the families are not four
      copies of one profile: at least two different winning basis
      subsets appear across {spmv, stencil, nbody, matmul};
    * ``isa_identical`` is true -- the reduction families produced
      byte-identical results under forced-scalar and best-ISA dispatch
      (gemm is the documented FMA exception, checked by its
      ``max_rel_diff`` residual ceiling instead);
    * on a host with vector units (``simd_host``), the best registered
      variant beats forced-scalar by ``best_isa_speedup >=
      SPEEDUP_FLOOR`` on at least one family. Scalar-only hosts skip
      this clause: there the best variant *is* the scalar one.
    """

    R2_FLOOR = 0.95
    SUBSET_FLOOR = 2
    SPEEDUP_FLOOR = 1.3

    def check(self, doc, errors):
        missing = [k for k in ("fit", "distinct_subsets", "best_isa_speedup",
                               "isa_identical", "simd_host")
                   if k not in doc]
        if missing or not isinstance(doc.get("fit"), list):
            fail(errors, "bench_kdisp",
                 f"summary keys missing or malformed: {missing or 'fit'}")
            return
        for row in doc["fit"]:
            best = max(row.get("cpu_r2", 0.0), row.get("gpu_r2", 0.0))
            if best < self.R2_FLOOR:
                fail(errors, f"bench_kdisp.{row.get('family', '?')}",
                     f"no unit class fits with R^2 >= {self.R2_FLOOR} "
                     f"(best {best:.3f})")
        if doc["distinct_subsets"] < self.SUBSET_FLOOR:
            fail(errors, "bench_kdisp",
                 f"only {doc['distinct_subsets']} distinct winning basis "
                 f"subset(s) across the families (need "
                 f">= {self.SUBSET_FLOOR})")
        if not doc["isa_identical"]:
            fail(errors, "bench_kdisp",
                 "isa_identical is false: a reduction family's forced-scalar "
                 "and best-ISA variants diverged byte-wise")
        if doc["simd_host"] and doc["best_isa_speedup"] < self.SPEEDUP_FLOOR:
            fail(errors, "bench_kdisp",
                 f"best-ISA speedup {doc['best_isa_speedup']:.2f} below "
                 f"absolute floor {self.SPEEDUP_FLOOR} on a SIMD host")


# Machine-dependent values: type-checked only.
IGNORED_SUFFIXES = ("_us", "gflops")
IGNORED_KEYS = {"hardware_concurrency", "reps", "genes", "events"}
# Sweep-identity keys: must be exactly equal.
IDENTITY_KEYS = {"n", "samples", "lanes", "units", "samples_per_unit",
                 "benchmark", "compiled_in", "makespan_equal",
                 "jobs", "seed", "trace_kinds", "trace_priorities",
                 "replay_identical", "trace10k_jobs",
                 "curve_n", "dist_n", "kill_grains", "transfer_samples",
                 "payload_min_bytes", "payload_max_bytes",
                 "bit_identical", "dist_total_grains",
                 "dist_grains_counted", "lost_grains", "demoted",
                 "kill_executed_grains",
                 "pipeline_depth", "pipeline_units", "pipeline_grains",
                 "pipeline_chunk_grains", "pipeline_grains_exact",
                 "pipeline_bit_identical", "pipeline_demoted",
                 "pipeline_lost_grains",
                 "pipeline_kill_executed_grains",
                 # bench_matrix grid identity: the cells themselves, the
                 # grid shape and the scheduler roster may not silently
                 # change (makespans and win bits may drift; the absolute
                 # WinRateGate below owns those).
                 "cell", "cells", "mode", "schedulers", "tie_tolerance",
                 "total_grains", "replay",
                 # bench_kdisp identity: the family roster and the
                 # cross-variant bit-identity claim hold on every machine
                 # (per-variant timings and resolved ISAs do not and are
                 # left unkeyed).
                 "family", "isa_identical", "variants"}


def fail(errors, path, message):
    errors.append(f"  {path}: {message}")


def is_ignored(key):
    return key in IGNORED_KEYS or any(key.endswith(s) for s in IGNORED_SUFFIXES)


def compare(base, fresh, path, errors):
    if type(base) is not type(fresh) and not (
            isinstance(base, (int, float)) and isinstance(fresh, (int, float))):
        fail(errors, path, f"type changed: {type(base).__name__} -> "
                           f"{type(fresh).__name__}")
        return
    if isinstance(base, dict):
        if set(base) != set(fresh):
            missing = sorted(set(base) - set(fresh))
            extra = sorted(set(fresh) - set(base))
            fail(errors, path, f"keys changed (missing={missing}, "
                               f"extra={extra})")
            return
        for key in base:
            compare(base[key], fresh[key], f"{path}.{key}", errors)
        return
    if isinstance(base, list):
        if len(base) != len(fresh):
            fail(errors, path, f"sweep length {len(base)} -> {len(fresh)}")
            return
        for i, (b, f) in enumerate(zip(base, fresh)):
            compare(b, f, f"{path}[{i}]", errors)
        return

    key = path.rsplit(".", 1)[-1].split("[")[0]
    if key in IDENTITY_KEYS:
        if base != fresh:
            fail(errors, path, f"identity value changed: {base!r} -> "
                               f"{fresh!r}")
        return
    if is_ignored(key):
        return
    if key in RATIO_GATES:
        _, factor = RATIO_GATES[key]
        floor = factor * base
        if fresh < floor:
            fail(errors, path, f"ratio collapsed: {fresh:.3g} < "
                               f"{floor:.3g} (= {factor} x baseline "
                               f"{base:.3g})")
        return
    if key in CEIL_GATES:
        ceiling = max(CEIL_GATES[key], 100.0 * base) \
            if key.startswith("max_") else max(CEIL_GATES[key], 2.0 * base)
        if fresh > ceiling:
            fail(errors, path, f"residual blew up: {fresh:.3g} > "
                               f"{ceiling:.3g} (baseline {base:.3g})")
        return
    if key in TAIL_GATES:
        abs_slack, factor = TAIL_GATES[key]
        ceiling = max(abs_slack, factor * base)
        if fresh > ceiling:
            fail(errors, path, f"tail regressed: {fresh:.3g} > "
                               f"{ceiling:.3g} (= max({abs_slack}, "
                               f"{factor} x baseline {base:.3g}))")
        return
    if key in ABS_CEIL_GATES:
        ceiling = ABS_CEIL_GATES[key]
        if fresh > ceiling:
            fail(errors, path, f"perf claim broken: {fresh:.3g} > "
                               f"{ceiling:.3g} (absolute ceiling; "
                               f"baseline {base:.3g})")
        return
    # Unknown numeric/string key: tolerated, so adding new fields to a
    # bench JSON does not require touching this gate (removing fields
    # still fails the structural check above).


def check_pair(base, fresh, label):
    """Full gate for one baseline/fresh pair: structural + drift
    compare, plus the absolute WinRateGate for bench_matrix JSONs.
    Returns the list of violation messages (empty = pass)."""
    errors = []
    compare(base, fresh, label, errors)
    if fresh.get("benchmark") == "bench_matrix":
        WinRateGate().check(fresh, errors)
    if fresh.get("benchmark") == "bench_kdisp":
        KdispGate().check(fresh, errors)
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


def self_test():
    """Pytest-free sanity check of the gate itself (run by CI).

    Each case runs compare() on a baseline/fresh pair and asserts whether
    it must flag a violation. Catches regressions in the gate logic
    before a silently-green gate waves a real regression through.
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
        fresh = dict(baseline)
        fresh.update(overrides)
        return fresh

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
    # bench_matrix cases exercise the absolute WinRateGate on top of the
    # structural compare, via the same check_pair() entry point main uses.
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

    def matrix_variant(rows=None, **overrides):
        fresh = dict(matrix_base)
        if rows is not None:
            fresh["rows"] = rows
        fresh.update(overrides)
        return fresh

    matrix_cases = [
        ("identical matrix passes", matrix_variant(), False),
        ("makespan drift in a row passes",
         matrix_variant(rows=[matrix_row("u4-mild/regular/none@1", True,
                                         0.99),
                              matrix_base["rows"][1]]), False),
        ("win_rate above absolute floor passes even below baseline",
         matrix_variant(wins=1, win_rate=0.45), False),
        ("win_rate below 0.40 floor fails",
         matrix_variant(wins=0, win_rate=0.3,
                        rows=[matrix_row("u4-mild/regular/none@1", False,
                                         1.05),
                              matrix_base["rows"][1]]), True),
        ("lost-grain violation count fails",
         matrix_variant(lost_grain_violations=1), True),
        ("per-row lost grain fails",
         matrix_variant(rows=[matrix_base["rows"][0],
                              matrix_row("u8-extreme/mixed/kill1@1", False,
                                         1.1, lost=3)]), True),
        ("diverged cell replay fails",
         matrix_variant(replay_identical=False), True),
        ("renamed cell fails identity",
         matrix_variant(rows=[matrix_row("u4-extreme/regular/none@1", True,
                                         0.97),
                              matrix_base["rows"][1]]), True),
        ("shrunk grid fails structurally",
         matrix_variant(rows=[matrix_base["rows"][0]]), True),
        ("changed scheduler roster fails identity",
         matrix_variant(schedulers="PLB-HeC,HDSS"), True),
        ("loosened tie tolerance fails identity",
         matrix_variant(tie_tolerance=0.1), True),
    ]

    # bench_kdisp cases exercise the absolute KdispGate: the R^2 floor,
    # the distinct-subset floor, the cross-variant identity claim and the
    # SIMD-host speedup floor (skipped on scalar-only hosts).
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

    def kdisp_variant(fit=None, **overrides):
        fresh = dict(kdisp_base)
        if fit is not None:
            fresh["fit"] = fit
        fresh.update(overrides)
        return fresh

    kdisp_cases = [
        ("identical kdisp passes", kdisp_variant(), False),
        ("resolved ISA and timings may differ per machine",
         kdisp_variant(host_isa="avx2", effective_isa="scalar",
                       best_isa_speedup=1.4), False),
        ("family R^2 below floor on both classes fails",
         kdisp_variant(fit=[kdisp_fit_row("spmv", 0.8, 0.9)] +
                       kdisp_base["fit"][1:]), True),
        ("low CPU R^2 passes while the GPU class fits",
         kdisp_variant(fit=[kdisp_fit_row("spmv", 0.5, 0.99)] +
                       kdisp_base["fit"][1:]), False),
        ("collapsed subset diversity fails",
         kdisp_variant(distinct_subsets=1), True),
        ("diverged reduction-family results fail",
         kdisp_variant(isa_identical=False), True),
        ("speedup under floor on a SIMD host fails",
         kdisp_variant(best_isa_speedup=1.1), True),
        ("speedup ~1 on a scalar-only host passes",
         kdisp_variant(simd_host=False, best_isa_speedup=1.0), False),
        ("blown-up gemm residual fails",
         kdisp_variant(kernels=[kdisp_base["kernels"][0],
                                dict(kdisp_base["kernels"][1],
                                     max_rel_diff=0.5)]), True),
        ("renamed family fails identity",
         kdisp_variant(fit=[kdisp_fit_row("spmv2", 1.0, 0.99)] +
                       kdisp_base["fit"][1:]), True),
        ("shrunk variant roster fails identity",
         kdisp_variant(variants=9), True),
    ]

    failures = 0
    for table, base_doc in ((cases, baseline), (matrix_cases, matrix_base),
                            (kdisp_cases, kdisp_base)):
        for label, fresh, must_flag in table:
            flagged = bool(check_pair(base_doc, fresh, "self-test"))
            status = "ok" if flagged == must_flag else "FAIL"
            if flagged != must_flag:
                failures += 1
            print(f"  {status}: {label} (flagged={flagged}, "
                  f"expected={must_flag})")

    # The missing-file path must fail loudly, not crash.
    rc = main(["check_bench.py", "/nonexistent-baseline.json",
               "/nonexistent-fresh.json"])
    status = "ok" if rc == 1 else "FAIL"
    if rc != 1:
        failures += 1
    print(f"  {status}: missing bench JSON exits 1 (rc={rc})")

    total = len(cases) + len(matrix_cases) + len(kdisp_cases) + 1
    if failures:
        print(f"self-test FAILED ({failures} case(s))")
        return 1
    print(f"self-test OK ({total} cases)")
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
            print("\n".join(errors))
            failures += 1
        else:
            print(f"OK   {fresh_path} within tolerance of {base_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
