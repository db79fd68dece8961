#!/usr/bin/env python3
"""Build and run the freshness-and-cost benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds the
benchmark (and the monitor's libraries from src/) into $CARGO_TARGET_DIR
(default .bench_build); later calls only rebuild what changed.  Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
A traced run (--trace 1) writes its spans to <build dir>/traces/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def sandboxed_env():
    """Keep compiler and run temporaries inside the build tree."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(target):
    out = build_dir()
    env = sandboxed_env()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
        return None
    return os.path.join(out, target)


def option(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(args):
    if args == ["--selftest"]:
        binary = build("perfbench_tests")
        if binary is None:
            return 2
        return subprocess.call([binary], env=sandboxed_env())

    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run_args = list(args)
    if option(args, "--trace") == "1" and option(args, "--trace-file") is None:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (option(args, "--workload"), option(args, "--seed"))
        run_args += ["--trace-file", os.path.join(traces, name)]
    try:
        done = subprocess.run([binary] + run_args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True,
                              env=sandboxed_env())
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
