#!/usr/bin/env python3
"""SLO gate for the fleet_sim JSONROW output.

Reads a fleet_sim capture (raw transcript or extracted JSONL — same loader
contract as check_bench_regression.py) and gates on the per-class "slo"
rows: every QoS class must meet its p99 queue-wait target. With
--expect-breach the polarity flips — at least one class must MISS its
target, which is how CI proves the gate actually has teeth (a 10x
overload scenario that still "passes" means the harness is measuring
nothing).

Queue-wait p99 under open-loop load is a property of spare capacity, so
it only means something on hardware with headroom: the gate self-skips
(exit 0) when the capture's hardware_concurrency is below --min-cores.
Correctness rows are exempt from the skip: when a "chaos" row is present,
verifier_divergence and dropped_ops must be zero on any machine — chaos
may slow the fleet down, it may never lose or corrupt an op. So is the
"fleet" row's accounting: the poller's window spans the whole run, so the
update ops it saw applied (poller_update_ops_per_sec x poller_window_s)
must cover every offered op (chaos only adds more).

Exit codes: 0 ok (or skipped), 1 gate failed, 2 bad invocation/inputs.
"""

import argparse
import json
import sys


def load_rows(path):
    """Accepts either pure JSONL or a full transcript: when any 'JSONROW '
    lines are present only those are parsed, so raw tee'd output works."""
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


def check_chaos(rows):
    """Correctness side of the chaos scenario — never skipped on core
    count, because losing ops is wrong on any machine."""
    failures = []
    for row in rows:
        if row.get("bench") != "fleet_sim" or row.get("row") != "chaos":
            continue
        div = row.get("verifier_divergence", 0)
        dropped = row.get("dropped_ops", 0)
        wound_failures = row.get("wound_failures", 0)
        status = "FAIL" if div or dropped or wound_failures else "ok"
        print(f"{status}: chaos correctness: verifier_divergence={div} "
              f"dropped_ops={dropped} wound_failures={wound_failures} "
              f"(kills={row.get('shard_kills')} "
              f"at-wal-point={row.get('wal_point_kills', 0)} "
              f"migrations={row.get('forced_migrations')} "
              f"clones={row.get('clones')} destroys={row.get('destroys')} "
              f"wounds={row.get('wounds', 0)} heals={row.get('heals', 0)})")
        if div:
            failures.append(f"verifier divergence: {div} live-set mismatches")
        if dropped:
            failures.append(f"{dropped} op future(s) dropped under chaos")
        if wound_failures:
            failures.append(
                f"{wound_failures} wounded-volume degradation check(s) "
                f"failed (write not kWounded / read failed / reopen did "
                f"not heal)")
    return failures


def check_fleet(rows):
    """Accounting side of the fleet row, never skipped on core count: the
    update ops the poller saw applied over its window must include every
    offered op (0.1% tolerance for the float rate x window product)."""
    failures = []
    for row in rows:
        if row.get("bench") != "fleet_sim" or row.get("row") != "fleet":
            continue
        offered = row.get("offered_ops")
        rate = row.get("poller_update_ops_per_sec")
        window = row.get("poller_window_s")
        if offered is None or rate is None or window is None:
            print("FAIL: fleet row lacks offered_ops, "
                  "poller_update_ops_per_sec or poller_window_s")
            failures.append("fleet row cannot show its applied update ops")
            continue
        applied = rate * window
        ok = applied >= offered * (1 - 1e-3)
        print(f"{'ok' if ok else 'FAIL'}: {row.get('scenario')}/fleet: "
              f"{applied:.0f} update ops applied over {window:.3f} s vs "
              f"{offered} offered")
        if not ok:
            failures.append(f"fleet: {applied:.0f} update ops applied < "
                            f"{offered} offered")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("capture", help="fleet_sim JSONROW capture (txt or jsonl)")
    ap.add_argument("--expect-breach", action="store_true",
                    help="require at least one class to MISS its SLO "
                         "(overload sanity check)")
    ap.add_argument("--min-cores", type=int, default=4,
                    help="self-skip the SLO rows below this "
                         "hardware_concurrency (default 4); chaos "
                         "correctness rows are checked regardless")
    args = ap.parse_args()

    rows = load_rows(args.capture)
    slo = [r for r in rows
           if r.get("bench") == "fleet_sim" and r.get("row") == "slo"]

    failures = check_chaos(rows) + check_fleet(rows)

    if not slo:
        sys.exit("error: capture has no fleet_sim slo rows")

    cores = slo[0].get("hardware_concurrency")
    if cores is None or cores < args.min_cores:
        print(f"note: hardware_concurrency={cores} < {args.min_cores} — "
              "SLO latency gate skipped (no headroom to absorb open-loop "
              "arrivals on this host)")
        if failures:
            print(f"\ncorrectness failed:")
            for f in failures:
                print(f"  {f}")
            return 1
        return 0

    breached = []
    for row in slo:
        cls = row.get("class")
        p99 = row.get("p99_queue_wait_us")
        target = row.get("target_us")
        ok = bool(row.get("pass"))
        status = "ok" if ok else ("MISS" if args.expect_breach else "FAIL")
        print(f"{status}: {row.get('scenario')}/{cls}: p99 queue wait "
              f"{p99} us vs target {target} us "
              f"({row.get('samples')} samples)")
        if not ok:
            breached.append(f"{cls}: p99 {p99} us > target {target} us")

    if args.expect_breach:
        if not breached:
            failures.append(
                "overload scenario breached no SLO — the gate has no teeth")
    else:
        failures.extend(breached)

    if failures:
        print(f"\n{len(failures)} SLO gate failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    verdict = ("breach confirmed" if args.expect_breach
               else "all classes within target")
    print(f"\nSLO gate ok: {verdict} across {len(slo)} class row(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
