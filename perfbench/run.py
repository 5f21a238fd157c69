#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a cargo package of its own that depends on the
repository's crates by path) into $CARGO_TARGET_DIR, default
.bench_build, then runs it from the repository root with the given
arguments. Build output goes to stderr; the benchmark's last stdout line
is its JSON result. Exits nonzero, printing no result, when the
repository's sources are missing or the build fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What the benchmark measures: every file here feeds the source digest.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_work", ".bench_out", "__pycache__"}


def source_digest():
    """sha256 over the paths and contents of the sources, in sorted order."""
    h = hashlib.sha256()
    for top in SOURCES:
        start = os.path.join(ROOT, top)
        paths = [start] if os.path.isfile(start) else []
        for dirpath, dirnames, filenames in os.walk(start):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            paths.extend(os.path.join(dirpath, f) for f in filenames)
        for path in sorted(paths):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD, when the repository root is itself a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
        return top[1]
    return "unknown"


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: the repository's sources are missing next to perfbench/",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()

    child = subprocess.Popen([os.path.join(target, "release", "perfbench")] + sys.argv[1:],
                             cwd=ROOT, env=env)

    def stop(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
