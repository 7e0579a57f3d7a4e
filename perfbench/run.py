#!/usr/bin/env python3
"""Build and run the serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload med-opt-mem --seed 2021 --seconds 10 --trace 0

Every argument is passed to the benchmark program (see perfbench/main.go).
The program is built from source into .bench_build/ with the Go toolchain;
the build cache, temporary files, diskstore files and trace output all stay
under .bench_build/. The last line of standard output is the result JSON.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    """Keep the toolchain offline and every file it writes in the checkout."""
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                      ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                      ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                      ("XDG_CACHE_HOME", "home/.cache")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="",
               GOTELEMETRY="off", GOENV="off", CGO_ENABLED="0")
    return env


def source_revision():
    """The git commit of the checkout, or "unknown" outside a repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    env = go_env()
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Stores of an earlier, interrupted run.
    shutil.rmtree(os.path.join(BUILD, "data"), ignore_errors=True)
    cmd = [binary,
           "-data-dir", os.path.join(BUILD, "data"),
           "-trace-dir", os.path.join(BUILD, "traces"),
           "-commit", source_revision()] + sys.argv[1:]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
