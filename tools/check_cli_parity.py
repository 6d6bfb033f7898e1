#!/usr/bin/env python3
"""Local/remote parity check for backlogctl.

Usage: check_cli_parity.py <dir holding backlogctl and backlogd>

backlogctl runs every verb as a wire-protocol client: against a backlogd with
--connect, otherwise against the same service hosted in process. This script
holds the two modes to the same bytes:

  1. Builds a service root with local `stress`, `snap` and `clone` (the clone
     gets a dotted name, which the daemon must host), leaves a crashed
     clone's `.cloning` staging directory in it, and copies it (`cp -a`, so
     the clone's hard-linked runs stay shared in the copy).
  2. Starts `backlogd --port 0` on the copy and reads the printed port.
  3. Runs each deterministic verb locally on the original and with --connect
     on the copy, and byte-compares stdout: info, runs, query, raw, scan,
     dump-run, maintain then info, snap, clone and destroy. maintain's
     `wall time:` line is a measurement and is masked in both outputs.
  4. Runs every malformed invocation in both modes and expects exit 2 with
     nothing created on disk and nothing dialled (the remote forms name a
     port nobody listens on).

Exits 0 when everything matches; prints each mismatch and exits 1 otherwise.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile

TIMEOUT_S = 300


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bindir = sys.argv[1]
    ctl = os.path.join(bindir, "backlogctl")
    daemon_bin = os.path.join(bindir, "backlogd")
    failures = []

    def run(*args):
        return subprocess.run([ctl, *args], capture_output=True, text=True,
                              timeout=TIMEOUT_S)

    def must(*args):
        p = run(*args)
        if p.returncode != 0:
            raise RuntimeError(f"backlogctl {' '.join(args)} exited "
                               f"{p.returncode}: {p.stderr.strip()}")
        return p.stdout

    tmp = tempfile.mkdtemp(prefix="cli_parity_")
    daemon = None
    try:
        local = os.path.join(tmp, "local")
        remote = os.path.join(tmp, "remote")
        must("stress", local, "3", "6000", "2")
        must("snap", local, "tenant-000")
        must("clone", local, "tenant-000", "alice.dev")
        os.mkdir(os.path.join(local, "x.cloning"))
        # Discovery must skip the staging leftover, not choke on its name.
        must("stats", local)
        os.mkdir(os.path.join(local, "x.cloning"))
        subprocess.run(["cp", "-a", local, remote], check=True)

        daemon = subprocess.Popen(
            [daemon_bin, remote, "--port", "0", "--shards", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        banner = daemon.stdout.readline()
        m = re.search(r"listening on [0-9.]+:(\d+) \((\d+) volumes", banner)
        if not m:
            raise RuntimeError(f"unexpected backlogd banner: {banner!r}")
        if m.group(2) != "4":
            failures.append(f"backlogd hosts {m.group(2)} volumes, want 4 "
                            f"(tenant-000..002 and alice.dev): {banner!r}")
        connect = ["--connect", f"127.0.0.1:{m.group(1)}"]

        def compare(label, local_args, remote_args, mask=None):
            lp, rp = run(*local_args), run(*connect, *remote_args)
            lo, ro = lp.stdout, rp.stdout
            if mask:
                lo, ro = re.sub(mask, "", lo), re.sub(mask, "", ro)
            if lp.returncode != 0 or rp.returncode != 0 or lo != ro or not lo:
                failures.append(
                    f"{label}: local exit {lp.returncode}, remote exit "
                    f"{rp.returncode}\n--- local\n{lo}{lp.stderr}"
                    f"--- remote\n{ro}{rp.stderr}")

        def vol(verb, tenant, *rest):
            compare(f"{verb} {tenant} {' '.join(rest)}".strip(),
                    [verb, os.path.join(local, tenant), *rest],
                    [verb, tenant, *rest])

        def svc(verb, *rest):
            compare(f"{verb} {' '.join(rest)}",
                    [verb, local, *rest], [verb, "x", *rest])

        for tenant in ("tenant-000", "alice.dev"):
            vol("info", tenant)
        vol("runs", "tenant-000")
        vol("query", "tenant-000", "1", "4096")
        vol("raw", "tenant-000", "1", "4096")
        vol("scan", "tenant-000")
        run_files = re.findall(r"^(\S+\.run) ",
                               must("runs", os.path.join(local, "tenant-000")),
                               re.M)
        if not run_files:
            failures.append("tenant-000 has no run file to dump")
        for name in run_files[:2]:
            vol("dump-run", "tenant-000", name)
        compare("maintain tenant-001",
                ["maintain", os.path.join(local, "tenant-001")],
                ["maintain", "tenant-001"], mask=r"(?m)^wall time:.*\n")
        vol("info", "tenant-001")
        svc("snap", "tenant-001")
        svc("clone", "tenant-001", "bob")
        vol("info", "bob")
        svc("destroy", "bob")
        svc("destroy", "alice.dev")

        # Malformed invocations: usage + exit 2 before any disk or network
        # access. `fresh` is a path none of them may create.
        fresh = os.path.join(tmp, "never-created")
        malformed = [
            [],
            ["stress", fresh, "notanumber", "10"],
            ["stress", fresh, "4"],
            ["stress", fresh, "4", "10", "4", "--batch", "0"],
            ["stress", fresh, "4", "10", "--batch", "notanumber"],
            ["migrate", local, "tenant-000", "9", "4"],
            ["qos", local, "tenant-000", "-5", "0"],
            ["balance", local, "0"],
            ["destroy", local],
            ["query", os.path.join(local, "tenant-000"), "abc"],
            ["frobnicate", local],
            ["stats"],
            ["stats", local, "notanumber"],
            ["stats", local, "4", "--json", "--json"],
            ["metrics", local, "--prom", "--json"],
            ["metrics", local, "--watch"],
            ["metrics", local, "--watch", "0"],
            ["trace", fresh, "4"],
            ["trace", fresh, "4", "10", "--sample", "0"],
            ["cache"],
            ["cache", local, "notanumber"],
            ["cache", "clear", local, "--json"],
        ]
        # The remote forms: --connect's own malformed specs and the same list
        # behind --connect (except migrate, whose target only the daemon can
        # judge). Nothing listens on port 1.
        remote_malformed = [
            ["--connect"],
            ["--connect", "127.0.0.1:19999"],
            ["--connect", "nohostport", "stats", "x"],
            ["--connect", "127.0.0.1:99999", "stats", "x"],
            ["--connect", "127.0.0.1:1", "--wait-ms", "x", "stats", "x"],
            ["--connect", "127.0.0.1:1", "stress", "x", "notanumber", "10"],
            ["--connect", "127.0.0.1:1", "qos", "x", "tenant-000", "-5", "0"],
            ["--connect", "127.0.0.1:1", "metrics", "x", "--watch", "0"],
            ["--connect", "127.0.0.1:1", "frobnicate", "x"],
        ] + [["--connect", "127.0.0.1:1", *args]
             for args in malformed if args[:1] != ["migrate"]]
        for args in malformed + remote_malformed:
            p = run(*args)
            if p.returncode != 2:
                failures.append(f"expected exit 2, got {p.returncode}: "
                                f"backlogctl {' '.join(args)}")
        if os.path.exists(fresh):
            failures.append(f"a malformed invocation created {fresh}")
    finally:
        if daemon is not None:
            daemon.terminate()
            try:
                if daemon.wait(timeout=60) != 0:
                    failures.append(f"backlogd exited {daemon.returncode} "
                                    "on SIGTERM")
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
                failures.append("backlogd ignored SIGTERM for 60 s")
        shutil.rmtree(tmp, ignore_errors=True)

    for f in failures:
        print(f"MISMATCH {f}")
    if failures:
        return 1
    print("local and --connect output identical; "
          "all malformed invocations exited 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
