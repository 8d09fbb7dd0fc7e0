#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-round --seed 1 --seconds 10 --trace 0

Every build product, cache and scratch file stays under .bench_build/ at
the repository root. The last line of standard output is the result
object; see perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOWORK="off",
               CGO_ENABLED="0")
    return env


def go_tool():
    """The go command on PATH, else the one under $GOROOT."""
    found = shutil.which("go")
    if found is None and os.environ.get("GOROOT"):
        found = os.path.join(os.environ["GOROOT"], "bin", "go")
    return found or "go"


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go_tool(), "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [binary] + sys.argv[1:] + ["--dir", BUILD, "--rev", revision()]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
