#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The binary is built with the Go
toolchain into the build directory ($CARGO_TARGET_DIR when set, else
.bench_build), keyed by a hash of the checkout's Go sources, so a run
after a source change rebuilds and later runs reuse the binary. The Go
build cache and temporary files stay inside the build directory too.
The traced run (--trace 1) writes its spans under <build dir>/perfbench.
The last line of standard output is the run's JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def source_hash():
    """Hash every Go source and module file the binary is built from."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")) and d != "testdata")
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(top, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(build_dir):
    """Return the path of an up-to-date binary, building it if needed."""
    exe = os.path.join(build_dir, "perfbench-" + source_hash())
    if os.path.exists(exe):
        return exe
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "go-cache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    partial = exe + ".partial"
    cmd = ["go", "build", "-o", partial, "."]
    proc = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("run.py: go build failed (exit %d)" % proc.returncode)
    os.replace(partial, exe)
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    os.makedirs(build_dir, exist_ok=True)
    exe = build(build_dir)
    cmd = [
        exe,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["-out", os.path.join(build_dir, "perfbench")]
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    # The child inherits stdout, so its last line is this command's last line.
    sys.exit(subprocess.call(cmd, cwd=ROOT, env=env))


if __name__ == "__main__":
    main()
