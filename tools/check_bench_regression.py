#!/usr/bin/env python3
"""Bench-regression gate for the service_throughput JSONROW output.

Compares a fresh run's rows against the checked-in baseline
(BENCH_baseline.json, one JSON object per line) and fails when throughput
regressed by more than the threshold at equal configuration (same bench,
shard count, tenant count, churn period, qos / balancer flag).

CI machines differ wildly in absolute speed, so by default throughput is
compared *normalized*: each service_throughput row's ops_per_second is
divided by that run's 1-shard/16-tenant row, making the gate a check on the
scaling shape (a >25% drop of the 4-shard speedup at equal shard count is a
real regression, a slower runner is not). Set --absolute to compare raw
ops/s instead (useful on a pinned benchmarking host).

Exit codes: 0 ok, 1 regression found, 2 bad invocation/inputs.
"""

import argparse
import json
import sys


def load_rows(path):
    """Accepts either pure JSONL or a full bench transcript: when any
    'JSONROW ' lines are present only those are parsed, so the raw tee'd
    output works directly."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    tagged = [l[len("JSONROW "):] for l in lines if l.startswith("JSONROW ")]
    candidates = tagged if tagged else lines
    rows = []
    for line in candidates:
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            sys.exit(f"error: {path}: unparsable row: {line!r} ({exc})")
    if not rows:
        sys.exit(f"error: {path}: no JSONROW rows")
    return rows


KEY_FIELDS = ("bench", "shards", "tenants", "churn_period_ms", "qos",
              "balancer")


def keyed_rows(rows):
    """(key, row) pairs where the key carries an occurrence index: several
    sweeps emit the same configuration (e.g. the 4-shard/16-tenant row
    appears in sweeps a, b and c), and the bench emits them in a fixed
    order, so the i-th occurrence of a config always lines up with the
    i-th occurrence in the baseline. Rows with `batched` == 1 belong to
    the retired sweep (a2), which replayed sweep (a) through the batched
    verb when a per-op verb still existed; older captures still carry them,
    and they are skipped so the occurrence indices line up."""
    seen = {}
    out = []
    for row in rows:
        if "ops_per_second" not in row or row.get("batched") == 1:
            continue
        base = tuple(row.get(f) for f in KEY_FIELDS)
        idx = seen.get(base, 0)
        seen[base] = idx + 1
        out.append((base + (idx,), row))
    return out


def check_clone_cost(rows, min_speedup=4.0, max_flatness=6.0):
    """Functional gate on the service_clone_cost sweep (CoW clone_volume):
    clone latency must be O(metadata). Checked on the *current* run alone —
    the properties are machine-independent shapes, not absolute speeds:

      * speedup: at the largest volume size the CoW clone must beat the
        full-copy path by at least `min_speedup` (the bench's headline
        target is 10x; the gate uses a loose floor so runner noise on the
        sub-millisecond CoW side cannot flake CI);
      * flatness: CoW clone latency across the >= 16x size spread must stay
        within `max_flatness` (headline target: 2x).
    """
    clone = [r for r in rows if r.get("bench") == "service_clone_cost"
             and "clone_micros_cow" in r]
    failures = []
    if not clone:
        return failures
    clone.sort(key=lambda r: r.get("ops", 0))
    largest = clone[-1]
    speedup = largest.get("speedup", 0)
    status = "FAIL" if speedup < min_speedup else "ok"
    print(f"{status}: clone_cost speedup at ops={largest.get('ops')}: "
          f"{speedup:.1f}x (gate >= {min_speedup}x, headline target 10x)")
    if speedup < min_speedup:
        failures.append(f"clone_cost speedup {speedup:.1f}x < {min_speedup}x")
    cows = [r["clone_micros_cow"] for r in clone if r["clone_micros_cow"] > 0]
    if len(cows) >= 2:
        flatness = max(cows) / min(cows)
        status = "FAIL" if flatness > max_flatness else "ok"
        print(f"{status}: clone_cost CoW flatness across sizes: "
              f"{flatness:.2f}x (gate <= {max_flatness}x, headline target 2x)")
        if flatness > max_flatness:
            failures.append(
                f"clone_cost CoW latency spread {flatness:.2f}x > {max_flatness}x")
    return failures


def check_shard_scaling(rows, floor=2.0):
    """Shard-scaling gate on sweep (a) of the current run alone: aggregate
    ops/s at 4 shards must be at least `floor` x the 1-shard row. Sweep (a)
    is the first row per shard count at 16 tenants without churn (sweeps b
    and c repeat the 4-shard configuration later).
    The property is a shape, not an absolute speed — but it only exists on
    hardware that can actually run 4 shard threads in parallel, so the gate
    self-skips when the run reports hardware_concurrency < 4 (the bench
    stamps every service_throughput row with it)."""
    sweep = [r for r in rows
             if r.get("bench") == "service_throughput"
             and r.get("tenants") == 16
             and r.get("churn_period_ms") == 0]
    if not sweep:
        print("note: no shard-sweep rows — scaling gate skipped")
        return []
    hc = sweep[0].get("hardware_concurrency")
    if hc is None or hc < 4:
        print(f"note: hardware_concurrency={hc} < 4 — shard-scaling gate "
              "skipped (thread-per-shard cannot scale on this host)")
        return []
    by_shards = {}
    for r in sweep:
        by_shards.setdefault(r["shards"], r["ops_per_second"])
    if 1 not in by_shards or 4 not in by_shards:
        print("note: shard sweep lacks the 1- or 4-shard row — "
              "scaling gate skipped")
        return []
    ratio = by_shards[4] / by_shards[1] if by_shards[1] > 0 else 0
    status = "FAIL" if ratio < floor else "ok"
    print(f"{status}: 1->4 shard scaling: {ratio:.2f}x "
          f"(gate >= {floor}x on a {hc}-core host)")
    if ratio < floor:
        return [f"1->4 shard scaling {ratio:.2f}x < {floor}x"]
    return []


def check_dispatch_overhead(rows, min_ratio=3.0):
    """Dispatch-overhead ceiling from the pure no-op microbench (sweep g),
    on the current run alone: the batched path's per-op queue overhead must
    be at least `min_ratio` x smaller than one-task-per-op dispatch. A pure
    ratio of two same-machine measurements, so runner speed is factored
    out."""
    modes = {r.get("mode"): r for r in rows
             if r.get("bench") == "service_dispatch"}
    if "single" not in modes or "batched" not in modes:
        print("note: no service_dispatch rows — dispatch gate skipped")
        return []
    single = modes["single"].get("nanos_per_op", 0)
    batched = modes["batched"].get("nanos_per_op", 0)
    if batched <= 0:
        print("note: degenerate dispatch measurement — gate skipped")
        return []
    ratio = single / batched
    status = "FAIL" if ratio < min_ratio else "ok"
    print(f"{status}: dispatch overhead single/batched: {single:.0f} / "
          f"{batched:.0f} ns/op = {ratio:.1f}x (gate >= {min_ratio}x)")
    if ratio < min_ratio:
        return [f"dispatch overhead reduction {ratio:.1f}x < {min_ratio}x"]
    return []


def check_dispatch_vs_baseline(base_rows, cur_rows, max_ratio=1.2):
    """Disabled-observability overhead gate: with tracing and metrics off
    (the dispatch microbench never enables them), the dispatch cost must
    stay within `max_ratio` of the checked-in baseline. Runner speeds
    differ, so the comparison is a ratio of ratios — the current run's
    batched/single split against the baseline's — which cancels the
    machine and isolates what the observability hooks added to the hot
    path."""
    def modes(rows):
        return {r.get("mode"): r for r in rows
                if r.get("bench") == "service_dispatch"}

    cur, base = modes(cur_rows), modes(base_rows)
    if "single" not in cur or "batched" not in cur:
        print("note: no current service_dispatch rows — baseline dispatch "
              "gate skipped")
        return []
    if "single" not in base or "batched" not in base:
        print("note: baseline lacks service_dispatch rows — baseline "
              "dispatch gate skipped")
        return []
    base_single = base["single"].get("nanos_per_op", 0)
    base_batched = base["batched"].get("nanos_per_op", 0)
    cur_single = cur["single"].get("nanos_per_op", 0)
    cur_batched = cur["batched"].get("nanos_per_op", 0)
    if min(base_single, base_batched, cur_single, cur_batched) <= 0:
        print("note: degenerate dispatch measurement — baseline dispatch "
              "gate skipped")
        return []
    # Fraction of a single-dispatch op that one batched op costs, now vs
    # then. If the hot path grew (per-op work in the drain loop or the
    # wrapper), this ratio rises on any machine.
    base_frac = base_batched / base_single
    cur_frac = cur_batched / cur_single
    ratio = cur_frac / base_frac
    status = "FAIL" if ratio > max_ratio else "ok"
    print(f"{status}: dispatch cost vs baseline: batched/single "
          f"{cur_frac:.4f} now vs {base_frac:.4f} baseline = {ratio:.2f}x "
          f"(gate <= {max_ratio}x with observability disabled)")
    if ratio > max_ratio:
        return [f"disabled-observability dispatch cost {ratio:.2f}x the "
                f"baseline ratio (> {max_ratio}x)"]
    return []


def check_cache_hit(rows, max_p99_ratio=1.2, p99_slack_us=50):
    """Shared-block-cache gate on the cache_hit bench of the current run
    alone (self-skips when the capture has no cache_hit rows). Both
    properties compare two same-machine, same-budget measurements, so
    runner speed cancels out:

      * hit ratio: at a matched total byte budget on the clone-heavy
        fleet, the shared (dev,ino)-keyed cache must *strictly* beat the
        per-volume split — CoW clones hard-link the same run files, so
        dedup by construction is the whole point of sharing;
      * query p99: the shared cache's striped locking may not cost more
        than `max_p99_ratio` of the per-volume baseline's tail latency.
        Warm-cache p99s sit in single-digit microseconds, where one
        scheduler blip flips any pure ratio, so the gate also requires the
        absolute gap to exceed `p99_slack_us` — a real regression (lock
        convoy, thrash) shows up in the hundreds of µs, far past both."""
    cache = [r for r in rows if r.get("bench") == "cache_hit"]
    failures = []
    if not cache:
        return failures
    by_mode = {r.get("mode"): r for r in cache}
    shared, pervol = by_mode.get("shared"), by_mode.get("pervol")
    if not shared or not pervol:
        print("note: cache_hit capture lacks a shared/pervol pair — "
              "cache gate skipped")
        return failures
    if (shared.get("budget_bytes") != pervol.get("budget_bytes")
            or shared.get("volumes") != pervol.get("volumes")):
        print("note: cache_hit modes ran unmatched configs — cache gate "
              "skipped")
        return failures

    s_ratio, p_ratio = shared.get("hit_ratio", 0), pervol.get("hit_ratio", 0)
    status = "FAIL" if s_ratio <= p_ratio else "ok"
    print(f"{status}: cache_hit hit ratio at matched budget: shared "
          f"{s_ratio:.3f} vs per-volume {p_ratio:.3f} (gate: strictly "
          f"greater)")
    if s_ratio <= p_ratio:
        failures.append(
            f"shared cache hit ratio {s_ratio:.3f} <= per-volume "
            f"{p_ratio:.3f} at matched budget")

    s_p99, p_p99 = shared.get("query_p99_us", 0), pervol.get("query_p99_us", 0)
    if p_p99 > 0:
        ratio = s_p99 / p_p99
        bad = ratio > max_p99_ratio and s_p99 - p_p99 > p99_slack_us
        status = "FAIL" if bad else "ok"
        print(f"{status}: cache_hit query p99: shared {s_p99} us vs "
              f"per-volume {p_p99} us = {ratio:.2f}x "
              f"(gate <= {max_p99_ratio}x beyond {p99_slack_us} us slack)")
        if bad:
            failures.append(
                f"shared cache query p99 {ratio:.2f}x the per-volume "
                f"baseline (> {max_p99_ratio}x + {p99_slack_us} us)")
    return failures


def check_net_loopback(rows, min_wire_fraction=0.10, min_batch_speedup=3.0):
    """Wire-protocol overhead gate on the net_loopback bench of the current
    run alone (self-skips when the capture has no net_loopback rows). Both
    properties are ratios of two same-machine measurements, so runner speed
    cancels out:

      * wire fraction: at the largest matched (connections, batch) config
        the loopback path must keep at least `min_wire_fraction` of the
        in-process throughput — framing + crc32c + a loopback round trip
        may cost a constant factor, never an order of magnitude;
      * batch speedup: on the wire, batch=256 must beat batch=1 by at least
        `min_batch_speedup` at 1 connection — the whole point of batched
        verbs is amortizing the per-frame round trip."""
    net = [r for r in rows if r.get("bench") == "net_loopback"]
    failures = []
    if not net:
        return failures
    by_cfg = {(r.get("mode"), r.get("connections"), r.get("batch")): r
              for r in net}

    matched = [(c, b) for (m, c, b) in by_cfg if m == "loopback"
               and ("inprocess", c, b) in by_cfg]
    if matched:
        conns, batch = max(matched, key=lambda cb: (cb[1], cb[0]))
        inproc = by_cfg[("inprocess", conns, batch)]["ops_per_second"]
        wire = by_cfg[("loopback", conns, batch)]["ops_per_second"]
        frac = wire / inproc if inproc > 0 else 0
        status = "FAIL" if frac < min_wire_fraction else "ok"
        print(f"{status}: net_loopback wire fraction at conns={conns} "
              f"batch={batch}: {frac:.2f} of in-process "
              f"(gate >= {min_wire_fraction})")
        if frac < min_wire_fraction:
            failures.append(
                f"net_loopback wire fraction {frac:.2f} < {min_wire_fraction}")

    small = by_cfg.get(("loopback", 1, 1))
    large = [by_cfg[k] for k in by_cfg
             if k[0] == "loopback" and k[1] == 1 and k[2] > 1]
    if small and large and small["ops_per_second"] > 0:
        best = max(r["ops_per_second"] for r in large)
        speedup = best / small["ops_per_second"]
        status = "FAIL" if speedup < min_batch_speedup else "ok"
        print(f"{status}: net_loopback batching speedup on the wire: "
              f"{speedup:.1f}x (gate >= {min_batch_speedup}x)")
        if speedup < min_batch_speedup:
            failures.append(
                f"net_loopback batching speedup {speedup:.1f}x "
                f"< {min_batch_speedup}x")
    return failures


def check_idle_ack(rows):
    """Commit-on-idle gate on the durability bench's closed-loop rows (one
    submitter awaiting each batch): the group-commit ack p50 may exceed the
    per-batch ack p50 by at most half the window. Machine-independent — a
    sweep scheduled on an idle shard must commit at once, not wait out the
    window, so both modes pay one fsync per ack."""
    by_window = {r.get("window_us"): r for r in rows}
    failures = []
    base = by_window.get(0)
    grouped = [w for w in by_window if w and w > 0]
    if base is None or not grouped:
        print("note: durability capture lacks a closed-loop baseline/group "
              "pair — idle-ack gate skipped")
        return failures
    window = max(grouped)
    base_us = base["idle_ack_us_p50"]
    group_us = by_window[window]["idle_ack_us_p50"]
    excess = group_us - base_us
    limit = window / 2
    status = "FAIL" if excess > limit else "ok"
    print(f"{status}: durability idle ack p50: group {group_us:.0f} us vs "
          f"per-batch {base_us:.0f} us = {excess:+.0f} us (gate <= "
          f"{limit:.0f} us, half the {window} us window)")
    if excess > limit:
        failures.append(
            f"idle group-commit ack waited {excess:.0f} us longer than "
            f"per-batch (> half the {window} us window)")
    return failures


def check_durability(rows, min_amortization=3.0, min_speedup=3.0,
                     min_fsync_us=60.0):
    """Group-commit WAL gate on the durability bench of the current run
    alone (self-skips when the capture has no durability rows). The
    closed-loop rows go to check_idle_ack; on the open-loop rows, at the
    widest fleet that ran both windows:

      * amortization: the group-commit run must cover at least
        `min_amortization` WAL records per fsync — a pure counter ratio,
        machine-independent (the per-batch baseline is exactly 1.0 by
        construction);
      * durable-ops/s: group commit must beat the per-batch baseline by
        `min_speedup`. Throughput only separates where an fsync actually
        costs something, so this half self-skips when the baseline's mean
        fsync is under `min_fsync_us` (tmpfs/overlay runners sync from page
        cache in microseconds and both modes run at memory speed)."""
    rows = [r for r in rows if r.get("bench") == "durability"]
    failures = []
    if not rows:
        return failures
    failures.extend(
        check_idle_ack([r for r in rows if r.get("loop") == "closed"]))
    dur = [r for r in rows if r.get("loop") != "closed"]
    by_cfg = {(r.get("volumes"), r.get("window_us") > 0): r for r in dur}
    paired = [v for (v, grouped) in by_cfg if grouped
              and (v, False) in by_cfg]
    if not paired:
        print("note: durability capture lacks a baseline/group pair — "
              "durability gate skipped")
        return failures
    volumes = max(paired)
    base, group = by_cfg[(volumes, False)], by_cfg[(volumes, True)]

    fsyncs = group.get("wal_fsyncs", 0)
    records = group.get("wal_records", 0)
    amort = records / fsyncs if fsyncs > 0 else 0
    status = "FAIL" if amort < min_amortization else "ok"
    print(f"{status}: durability amortization at {volumes} volumes: "
          f"{records} records / {fsyncs} fsyncs = {amort:.1f} per fsync "
          f"(gate >= {min_amortization})")
    if amort < min_amortization:
        failures.append(
            f"group commit amortized only {amort:.1f} records/fsync "
            f"< {min_amortization}")

    fsync_us = base.get("fsync_micros_mean", 0)
    if fsync_us < min_fsync_us:
        print(f"note: baseline fsync mean {fsync_us:.0f} us < {min_fsync_us}"
              f" us — durable-ops/s gate skipped (fsync too cheap on this "
              f"filesystem for amortization to show in wall time)")
        return failures
    base_ops = base.get("durable_ops_per_second", 0)
    group_ops = group.get("durable_ops_per_second", 0)
    speedup = group_ops / base_ops if base_ops > 0 else 0
    status = "FAIL" if speedup < min_speedup else "ok"
    print(f"{status}: durable-ops/s at {volumes} volumes (fsync mean "
          f"{fsync_us:.0f} us): group {group_ops:.0f} vs per-batch "
          f"{base_ops:.0f} = {speedup:.1f}x (gate >= {min_speedup}x)")
    if speedup < min_speedup:
        failures.append(
            f"group commit durable-ops/s {speedup:.1f}x < {min_speedup}x")
    return failures


def reference_ops(rows):
    """ops_per_second of the 1-shard/16-tenant sweep-(a) row. Captures
    that still carry the retired sweep (a2) mark its rows `batched` == 1
    and sweep (a)'s `batched` == 0; newer ones have no `batched` field."""
    for row in rows:
        if (row.get("bench") == "service_throughput"
                and row.get("shards") == 1 and row.get("churn_period_ms") == 0
                and row.get("batched") in (0, None)):
            return row["ops_per_second"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="checked-in BENCH_baseline.json")
    ap.add_argument("current", help="fresh JSONROW capture (txt or jsonl)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed fractional regression (default 0.25)")
    ap.add_argument("--absolute", action="store_true",
                    help="compare raw ops/s instead of 1-shard-normalized")
    args = ap.parse_args()

    base_rows = load_rows(args.baseline)
    cur_rows = load_rows(args.current)

    base_ref = cur_ref = 1.0
    if not args.absolute:
        base_ref = reference_ops(base_rows)
        cur_ref = reference_ops(cur_rows)
        if not base_ref or not cur_ref:
            sys.exit("error: missing the 1-shard reference row; "
                     "rerun with --absolute or fix the capture")

    base_by_key = dict(keyed_rows(base_rows))

    checked = 0
    failures = []
    for key, row in keyed_rows(cur_rows):
        base = base_by_key.get(key)
        if base is None:
            print(f"note: no baseline for {key} — new config, skipped")
            continue
        if not args.absolute and row.get("qos") == 1:
            # Rate-limited rows are wall-clock-pinned (the throttle, not the
            # CPU, sets their ops/s), so dividing by the CPU-bound 1-shard
            # reference would read as a regression on any faster runner.
            print(f"note: skipping rate-limited row {key} in normalized mode")
            continue
        base_val = base["ops_per_second"] / base_ref
        cur_val = row["ops_per_second"] / cur_ref
        checked += 1
        if base_val <= 0:
            continue
        drop = 1.0 - cur_val / base_val
        tag = (f"{row['bench']} shards={row.get('shards')} "
               f"tenants={row.get('tenants')} churn={row.get('churn_period_ms')} "
               f"qos={row.get('qos')} balancer={row.get('balancer')}")
        status = "FAIL" if drop > args.threshold else "ok"
        print(f"{status}: {tag}: {base_val:.3g} -> {cur_val:.3g} "
              f"({-drop * 100:+.1f}%)")
        if drop > args.threshold:
            failures.append(tag)

    failures.extend(check_clone_cost(cur_rows))
    failures.extend(check_shard_scaling(cur_rows))
    failures.extend(check_dispatch_overhead(cur_rows))
    failures.extend(check_dispatch_vs_baseline(base_rows, cur_rows))
    failures.extend(check_net_loopback(cur_rows))
    failures.extend(check_cache_hit(cur_rows))
    failures.extend(check_durability(cur_rows))

    if checked == 0:
        sys.exit("error: no comparable rows between baseline and current run")
    if failures:
        print(f"\n{len(failures)} row(s) regressed more than "
              f"{args.threshold * 100:.0f}%:")
        for tag in failures:
            print(f"  {tag}")
        return 1
    print(f"\nall {checked} comparable rows within "
          f"{args.threshold * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
