#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (see README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        # the harness's own helper tests

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), in Release.
The driver prints a report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics; this script passes it through
and exits non-zero when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_search", "serve"]


def run_timeout(seconds):
    """A run measures for about `seconds`; a traced serve run re-runs
    every fresh request on top, and the harness adds set-up probes."""
    return 2 * seconds + 80


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no program sources next to perfbench/; "
                 "run from the root of a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--parallel",
                    str(min(4, os.cpu_count() or 1)), "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(driver, workload, args):
    cmd = [driver, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s-%d.json" % (workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run_timeout(args.seconds))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or sorted(
            result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: %s run failed (exit %d)" % (workload,
                                                         proc.returncode))
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness's helper tests")
    args = parser.parse_args()
    if args.test:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if args.workload is None or args.seconds < 1 or args.seed < 0:
        parser.error("--workload, a --seconds >= 1 and a --seed >= 0 "
                     "are required")
    driver = build("perfbench_driver")
    if args.workload != "all":
        lines, _ = run_one(driver, args.workload, args)
        sys.stdout.write("\n".join(lines) + "\n")
        return
    results = {}
    for workload in WORKLOADS:
        lines, results[workload] = run_one(driver, workload, args)
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
    print(json.dumps(results))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: %s failed with exit %d" % (e.cmd[0], e.returncode))
    except subprocess.TimeoutExpired as e:
        sys.exit("perfbench: run took longer than %d s" % e.timeout)
