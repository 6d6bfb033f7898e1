#!/usr/bin/env python3
"""Check that `stats --json`'s lifetime total matches the metrics registry.

Usage: check_stats_totals.py METRICS_JSON STATS_JSON

METRICS_JSON is `backlogctl metrics <root> --json` output and STATS_JSON is
`backlogctl stats <root> --json` output, scraped in that order from the same
service with no foreground traffic in between (`metrics` applies a load
pulse before it scrapes; `stats` applies none). Each per-op counter is
recorded once, in the registry, so the pairs below must be equal. Exit 0
when they are, 1 with one line per mismatch.
"""

import json
import sys

PAIRS = [
    ("updates", "backlog_updates_total"),
    ("batches", "backlog_update_batches_total"),
    ("queries", "backlog_queries_total"),
]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        counters = json.load(f)["counters"]
    with open(argv[2]) as f:
        total = json.load(f)["total"]
    errors = [
        f"stats total.{key}={total[key]} != {family}={counters[family]}"
        for key, family in PAIRS
        if total[key] != counters[family]
    ]
    for e in errors:
        print(e)
    if not errors:
        print("ok: stats totals match the registry families")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
