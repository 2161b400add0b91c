#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload campus_bulk --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary (see perfbench/README.md). The
build and the Go build cache live in .bench_build/ at the repository root,
so nothing is written outside the checkout. The binary's exit code is
returned; a failed build exits 1 without printing a result.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the module's Go sources, standing in for the commit
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(cmd, cwd, env, timeout):
    """Run cmd and wait for it. On timeout, or when this script is asked to
    stop, the child is stopped and waited for too, so no process outlives
    the script. Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env)

    def stop(signum, _frame):
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    os.makedirs(BUILD, exist_ok=True)
    try:
        code = run_child(["go", "build", "-o", BINARY, "."], HERE, env, BUILD_TIMEOUT_S)
    except OSError as e:
        print("perfbench: build failed:", e, file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE"] = source_digest()
    sys.stdout.flush()
    code = run_child([BINARY] + sys.argv[1:], ROOT, env, RUN_TIMEOUT_S)
    if code is None:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
