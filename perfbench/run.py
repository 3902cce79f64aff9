#!/usr/bin/env python3
"""Build and run the fig1+fig2 audit-campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload inproc --seed 7 --seconds 32 --trace 0

The script builds perfbench/ (a Go module of its own that uses the
repository's module through perfbench/go.work) into .bench_build/perfbench
with every Go cache inside that directory, records the query pool and (for
cluster3-snap) writes the shard snapshots there, each in a separate process
once per build, runs one measured process, and relays its last output line:
one JSON object with the keys correct, attempted, failed and metrics. Any
failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("inproc", "http", "cluster3-snap")

BUILD_TIMEOUT = 840
PREP_TIMEOUT = 300
RUN_TIMEOUT = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, **kw):
    """Runs cmd in a process group of its own and returns its exit status
    and standard output. On a timeout, or if this script is interrupted,
    the whole group (the go tool's compilers, a run's child boots) is
    killed before the exception propagates."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        raise
    return p.returncode, out


def base_env():
    """The caller's environment without Go settings that would change the
    build or the measured process (GOFLAGS, GOGC, GOMAXPROCS, ...)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GO") or k == "GOROOT"}


def build():
    env = base_env()
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        # Go reads its env file and keeps telemetry under the user config
        # directory; keep both inside the build directory.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOWORK=os.path.join(HERE, "go.work"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "auditbench")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        code, _ = call(["go", "build", "-o", binary, "."], BUILD_TIMEOUT, cwd=HERE, env=env, stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if code != 0:
        fail("build exited with status %d" % code)
    with open(binary, "rb") as f:
        return binary, hashlib.sha256(f.read()).hexdigest()[:16]


def measured_env():
    env = base_env()
    env["GOMAXPROCS"] = str(len(os.sched_getaffinity(0)))
    return env


def pool(binary, build_id):
    """The battery's query pool is recorded by the code under test, once
    per build: the upstream specs of one cold campaign."""
    path = os.path.join(BUILD, "pool", build_id + ".jsonl")
    if os.path.isfile(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    try:
        code, _ = call([binary, "pool", "-out", tmp], PREP_TIMEOUT, env=measured_env(), stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        fail("query pool failed: %s" % e)
    if code != 0:
        fail("query pool exited with status %d" % code)
    os.rename(tmp, path)
    return path


def prep(binary, build_id):
    """Shard snapshots are written by the code under test, once per build.
    A file that exists is reused as it is: a stale or mismatched one fails
    the load with the snapshot package's typed error."""
    snapdir = os.path.join(BUILD, "snap", build_id)
    if os.path.isdir(snapdir):
        return snapdir
    tmp = snapdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        code, _ = call([binary, "prep", "-dir", tmp], PREP_TIMEOUT, env=measured_env(), stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        fail("snapshot prep failed: %s" % e)
    if code != 0:
        fail("snapshot prep exited with status %d" % code)
    os.rename(tmp, snapdir)
    return snapdir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    os.makedirs(BUILD, exist_ok=True)
    binary, build_id = build()
    cmd = [binary, "run", "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-pool", pool(binary, build_id),
           "-records", os.path.join(BUILD, "records", build_id),
           "-reference", os.path.join(HERE, "reference.json")]
    if args.workload == "cluster3-snap":
        cmd += ["-snapdir", prep(binary, build_id)]
    try:
        code, out = call(cmd, RUN_TIMEOUT, env=measured_env(), stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.SubprocessError) as e:
        fail("run failed: %s" % e)
    if code != 0:
        fail("run exited with status %d" % code)
    lines = out.strip().splitlines()
    if not lines:
        fail("run printed no result")
    try:
        res = json.loads(lines[-1])
    except ValueError as e:
        fail("unreadable result: %s" % e)
    if set(res) != {"correct", "attempted", "failed", "metrics"} or res["correct"] is not True:
        fail("malformed or failed result: %s" % lines[-1])
    print(lines[-1])


if __name__ == "__main__":
    main()
