#!/usr/bin/env python3
"""The repository benchmark: build, then run one workload.

    python3 perfbench/run.py --workload jobs|deploy|stream --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the SPI libraries, spi_served and
the benchmark binary from source into $CARGO_TARGET_DIR (default
.bench_build), pins the daemon and the load generator to disjoint halves
of the cores this process may use, and prints the run context, the
binary's report and, as the last line, the result object. Exits non-zero
when the build fails, an output is wrong or the run does not complete.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

WHY = {
    "jobs": "open-loop explicit speech/particle jobs over keep-alive connections: "
            "HTTP parse, reply formatting, batching and the VTS frame path do the work",
    "deploy": "compile, serialize and POST seeded plans beside a background job stream: "
              "compiler, plan JSON and the daemon's plan-cache write path do the work",
    "stream": "in-process gang runs of both paper apps: channels, WorkerPool and the "
              "DSP kernels do the work, the daemon none",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)
    return out


def compiler_of(out):
    cxx = "c++"
    build_type = ""
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    version = subprocess.run([cxx, "--version"], capture_output=True, text=True).stdout
    return (version.splitlines() or [cxx])[0], build_type


def core_map():
    """Daemon on the first half of the usable cores, generator on the rest."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return cores, cores, cores
    half = len(cores) // 2
    return cores, cores[:half], cores[half:]


def run(args):
    out = build(["perfbench", "spi_served"])
    compiler, build_type = compiler_of(out)
    cores, server, gen = core_map()
    trace_dir = os.path.join(out, "out")
    os.makedirs(trace_dir, exist_ok=True)
    context = {
        "workload": args.workload, "why": WHY.get(args.workload, ""), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "usable_cores": cores, "server_cores": server, "generator_cores": gen,
        "compiler": compiler, "build_type": build_type,
    }
    print("context " + json.dumps(context), flush=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--bin-dir", out,
           "--out-dir", trace_dir, "--server-cores", ",".join(map(str, server)),
           "--gen-cores", ",".join(map(str, gen))]
    # Own session: whatever the binary leaves behind is killed with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        log("perfbench: benchmark binary exited with status %d" % proc.returncode)
        return proc.returncode or 1
    print("\n".join(lines), flush=True)
    return 0


def selftest():
    out = build(["perfbench_tests"])
    return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true", help="build and run the benchmark's own tests")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
