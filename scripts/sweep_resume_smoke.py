#!/usr/bin/env python
"""CI smoke: kill a checkpointed sweep mid-flight, resume, diff vs clean.

Runs a tiny (protocol x degree x seed) grid three ways:

1. an uninterrupted checkpointed sweep, saved as ``clean.json``;
2. the same sweep on a two-worker pool, SIGTERM-killed once at least two
   shard records exist;
3. a resume of (2) from its checkpoint, saved as ``resumed.json``.

Exits non-zero unless the kill landed mid-sweep, every pool worker of (2)
is gone within ``ORPHAN_GRACE_S`` seconds of the kill, and ``resumed.json``
is byte-for-byte identical to ``clean.json`` — the durability contract of
``repro.experiments.store``.  Reads worker pids from ``/proc`` (Linux).

Usage: python scripts/sweep_resume_smoke.py [workdir]
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

#: Per-seed pacing so the SIGTERM deterministically lands mid-sweep.
PACE_SECONDS = "0.2"
RUNS = 6
#: Seconds a killed sweep's pool workers get to notice and exit.
ORPHAN_GRACE_S = 5.0


def shard_count(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        return sum(1 for _ in f)


def _stat(pid: int) -> list[str]:
    """Fields of ``/proc/PID/stat`` after the command name (state first),
    or [] if there is no such process."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def children(pid: int) -> list[int]:
    pids = (int(name) for name in os.listdir("/proc") if name.isdigit())
    return [child for child in pids if _stat(child)[1:2] == [str(pid)]]


def alive(pid: int) -> bool:
    state = _stat(pid)[:1]
    return bool(state) and state != ["Z"]


def main() -> int:
    workdir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="sweep-resume-smoke-"
    )
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, REPRO_TEST_SLEEP_SECONDS=PACE_SECONDS)
    base = [
        sys.executable, "-m", "repro", "sweep",
        "--protocols", "static", "--degrees", "4", "--runs", str(RUNS),
    ]

    print(f"[1/3] clean sweep ({RUNS} seeds) ...")
    clean = os.path.join(workdir, "clean.json")
    subprocess.run(
        [*base, "--checkpoint", os.path.join(workdir, "clean_ck"),
         "--save", clean],
        env=env, check=True,
    )

    print("[2/3] checkpointed two-worker sweep, SIGTERM mid-flight ...")
    ck = os.path.join(workdir, "ck")
    shards = os.path.join(ck, "shards.jsonl")
    proc = subprocess.Popen([*base, "--checkpoint", ck, "--workers", "2"], env=env)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if shard_count(shards) >= 2:
            break
        if proc.poll() is not None:
            print("FAIL: sweep finished before it could be killed")
            return 1
        time.sleep(0.02)
    else:
        proc.kill()
        print("FAIL: no shards appeared before the kill deadline")
        return 1
    workers = children(proc.pid)
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=30)
    killed_at = shard_count(shards)
    print(f"      killed with {killed_at}/{RUNS} seeds checkpointed")
    if not 1 <= killed_at < RUNS:
        print("FAIL: kill did not land mid-sweep")
        return 1
    if not workers:
        print("FAIL: the sweep had no pool worker to check")
        return 1
    time.sleep(ORPHAN_GRACE_S)
    left = [pid for pid in workers if alive(pid)]
    if left:
        print(f"FAIL: pool workers {left} outlived the killed sweep")
        return 1
    print(f"      its {len(workers)} pool workers exited")

    print("[3/3] resume from the checkpoint ...")
    resumed = os.path.join(workdir, "resumed.json")
    subprocess.run(
        [*base, "--checkpoint", ck, "--save", resumed], env=env, check=True,
    )

    with open(clean, "rb") as f:
        clean_bytes = f.read()
    with open(resumed, "rb") as f:
        resumed_bytes = f.read()
    if clean_bytes != resumed_bytes:
        print("FAIL: resumed results differ from the uninterrupted sweep")
        return 1
    print("OK: kill-and-resume is bit-identical to an uninterrupted sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
