#!/usr/bin/env python3
"""Build and run the JSweep repository benchmark.

    python3 jsbench/run.py --workload kobayashi-s8 --seed 1 --seconds 20 --trace 0

Builds the benchmark driver from the checkout's sources (Release, into
.bench_build/jsbench) on first use, then runs one workload and passes its
output through: one `name value unit` line per metric and, last, a one-line
JSON result. Extra flags:

    --quick               smoke-size problems, one setup and one solve
    --perturb-reference   negative control: perturb one reference value by
                          1e-9; the run must report the solve as failed
    --self-test           run every workload at --quick size (must pass) and
                          with --perturb-reference (must fail)
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "jsbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "jsbench")
WORKLOADS = ("kobayashi-s8", "swirled-2rank", "core-keff-4g")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("jsbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, log):
    """Run `cmd` with its output appended to `log`; stop it on timeout.
    Compiler temporaries go to .bench_build/tmp, inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "a") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("timed out: " + " ".join(cmd) + " (see " + log + ")")
    if code != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("failed: " + " ".join(cmd) + " (see " + log + ")")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no JSweep sources next to " + HERE)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") is not None:
                cmd += ["-G", "Ninja"]
            run_checked(cmd, BUILD_TIMEOUT_S, log)
        jobs = str(min(4, os.cpu_count() or 1))
        run_checked(["cmake", "--build", BUILD_DIR, "--target", "jsbench",
                     "-j", jobs], BUILD_TIMEOUT_S, log)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(args, extra, capture=False):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS_DIR, "--git-sha", git_sha()] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE
                            if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def self_test(args):
    """Quick size must pass every check; a perturbed reference must fail."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            code, _ = run_workload(args, ["--quick"], capture=True)
            good = code == 0
            ok = ok and good
            print("%-14s trace=%d quick: %s" %
                  (workload, trace, "pass" if good else "FAIL (exit %d)" % code))
        args.trace = 0
        code, out = run_workload(args, ["--quick", "--perturb-reference"],
                                 capture=True)
        lines = out.decode().strip().splitlines() if out else []
        caught = code != 0 and bool(lines) and '"correct": false' in lines[-1]
        ok = ok and caught
        print("%-14s perturbed reference: %s" %
              (workload, "caught" if caught else "NOT CAUGHT (exit %d)" % code))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--perturb-reference", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not args.self_test and args.workload is None:
        p.error("--workload is required")

    build()
    if args.self_test:
        return self_test(args)
    extra = []
    if args.quick:
        extra.append("--quick")
    if args.perturb_reference:
        extra.append("--perturb-reference")
    sys.stdout.flush()
    code, _ = run_workload(args, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
