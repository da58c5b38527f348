#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload lib-skewed --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. The Go program in this directory is
built against the checkout's own sources into the build directory
(CARGO_TARGET_DIR if set, else .bench_build), with the Go build cache, the
module cache and temporary files kept there too, so a run reads and writes
only inside the checkout. The binary is rebuilt whenever a Go source or
go.mod file of the checkout changes. The last line of standard output is the
run's JSON result; every line before it starts with '#'.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lib-skewed", "lib-stream", "serve-rw")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_hash(build_dir):
    """Hash every Go source and module file of the checkout."""
    h = hashlib.sha256()
    skip = {os.path.abspath(build_dir)}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and os.path.join(dirpath, d) not in skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def revision(digest):
    """The git commit when there is one, else the source hash."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "src-" + digest[:12]


def build(build_dir, digest):
    binary = os.path.join(build_dir, "perfbench-" + digest[:16])
    if os.path.exists(binary):
        return binary
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOTMPDIR", "tmp"), ("GOPATH", "gopath")):
        env[key] = os.path.join(build_dir, sub)
        os.makedirs(env[key], exist_ok=True)
    # Everything the build needs is in the checkout and the toolchain:
    # nothing is downloaded.
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off")
    env["TMPDIR"] = env["GOTMPDIR"]
    partial = binary + ".partial"
    res = subprocess.run(["go", "build", "-p", "2", "-trimpath", "-o", partial, "."],
                         cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    os.replace(partial, binary)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark builds the program from the checkout's sources: without
    # them there is nothing to measure.
    for need in ("go.mod", "internal", os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from the root of a full checkout" % need)
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    digest = source_hash(build_dir)
    binary = build(build_dir, digest)
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(build_dir, "perfbench"), "-rev", revision(digest)]
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
