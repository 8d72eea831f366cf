#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload regress-cold|fuzz|serve-warm \
        --seed N --seconds S --trace 0|1

Builds the fti libraries and the benchmark binary from source into
.bench_build (or $CARGO_TARGET_DIR) on first use, gives the run a fresh
scratch directory under .bench_scratch (kernel files, compiled-object
cache, serve socket) and removes it afterwards, so no run sees another's
state.  The exact counts a run reports are kept under .bench_out/counts,
keyed on a hash of the benchmark binary and the kernel files it reads,
and must repeat on every later run of that same code with the same
workload, seed, length and trace mode; a run whose counts differ is
reported as failed.  A program change that moves a count builds another
binary, so its counts start a ledger of their own.
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
WORKLOADS = ("regress-cold", "fuzz", "serve-warm")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_group(command, timeout, **kwargs):
    """Runs `command` in its own process group; on timeout the whole
    group (the benchmark binary and any host-compiler children) is killed
    and reaped."""
    process = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return process.returncode, stdout


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = os.path.join(build_dir, "fti_perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                  "--target", "fti_perfbench"])
    for step in steps:
        code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return binary


def code_hash(binary):
    """Hash of what decides a run's counts: the benchmark binary (the fti
    libraries are linked in statically) and the example kernels it reads."""
    digest = hashlib.sha256()
    kernels = os.path.join("examples", "kernels")
    files = [binary] + [os.path.join(kernels, name)
                        for name in sorted(os.listdir(kernels))]
    for path in files:
        digest.update(path.encode() + b"\0")
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()[:16]


def check_counts(binary, workload, seed, seconds, trace, counts):
    """Empty when `counts` match every earlier run of this code and
    configuration (the first run records them); otherwise what differed."""
    directory = os.path.join(".bench_out", "counts", code_hash(binary))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d-s%d-trace%d.json"
                        % (workload, seed, seconds, trace))
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
        return ["%s: %s then %s" % (name, recorded.get(name), counts.get(name))
                for name in sorted(set(recorded) | set(counts))
                if recorded.get(name) != counts.get(name)]
    temporary = path + ".tmp"
    with open(temporary, "w") as handle:
        json.dump(counts, handle, sort_keys=True)
    os.replace(temporary, path)
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)

    binary = build()
    # Relative, so the serve socket path stays short wherever the
    # checkout lives.
    scratch = os.path.join(".bench_scratch",
                           "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    trace_out = os.path.join(".bench_out", "trace-%s-seed%d.json"
                             % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--root", ".", "--trace-out", trace_out]
    # The host compiler's temporary files stay in the scratch directory.
    env = dict(os.environ, TMPDIR=os.path.abspath(scratch))
    try:
        code, stdout = run_group(command, RUN_TIMEOUT_S, env=env,
                                 stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("counts "):
        raise RuntimeError("fti_perfbench exited %d without a result" % code)
    result = json.loads(lines[-1])
    counts = json.loads(lines[-2][len("counts "):])
    drift = check_counts(binary, args.workload, args.seed, args.seconds,
                         args.trace, counts)
    if drift:
        log("counts differ from an earlier run of this code with this seed: "
            + "; ".join(drift))
        result["correct"] = False
        result["failed"] += 1
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        log("error: %s" % error)
        sys.exit(1)
