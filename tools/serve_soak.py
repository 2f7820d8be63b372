#!/usr/bin/env python3
"""CI soak harness for `ftes_cli --serve` (docs/SERVER.md).

Pipes a deterministic mixed stream of jobs -- valid, duplicated, garbage,
malformed, zero-budget -- into one server process with fault injection
armed on a fixed schedule, then asserts the robustness contract:

  * the server exits 0 with exactly one well-formed JSON response per job,
    in order, plus the final stats line;
  * every response carries a status from the typed taxonomy;
  * the mix deterministically exercises ok / parse_error / timed_out /
    cancelled, retries happen, and the result cache serves hits;
  * every armed fault site actually fired (no injected class went
    unexercised);
  * duplicate submissions that completed are answered byte-identically.

With --serve-jobs N (N > 1) the same stream additionally runs through a
server of width N, and its output must be byte-identical to the width-1
run modulo the wall-clock `seconds` field, stats line included -- the
--serve-jobs ordering and determinism guarantee (docs/SERVER.md).
--cache-bytes N sets both runs' result-cache budget; 3000 bytes holds one
payload, so the stream evicts throughout and the LRU order decides which
duplicates hit.

Usage: tools/serve_soak.py <path-to-ftes_cli> [--jobs N] [--serve-jobs N]
                           [--cache-bytes N]
"""

import argparse
import json
import re
import subprocess
import sys

PROBLEM = (
    "arch nodes=2 slot=5\\nk 2\\ndeadline 600\\n"
    "process P1 wcet N1=20 N2=30 alpha=5 mu=5 chi=5\\n"
    "process P2 wcet N1=40 N2=60 alpha=5 mu=5 chi=5\\n"
    "process P3 wcet N1=60 alpha=5 mu=5 chi=5\\n"
    "message m1 P1 P2\\nmessage m2 P1 P3"
)

# Fault schedules are matched per job (job stream index + the job's own
# per-site hit count; see util/fault_injection.h), so the pipeline.stage
# rule fires once per pipeline-running job rather than on a global
# every-Nth-hit cadence.
INJECT = [
    "parse:throw:every=11",
    "pipeline.stage:bad-alloc:every=3:limit=1",
    "serve.job:cancel:every=17",
]


def make_stream(jobs):
    lines = []
    for i in range(jobs):
        kind = i % 5
        if kind == 0:
            lines.append(
                f"job id=ok{i} seed={(i // 5) % 3} iterations=20 tables=0 "
                f"text={PROBLEM}"
            )
        elif kind == 1:
            lines.append(
                f"job id=dup{i} seed=1 iterations=20 tables=0 text={PROBLEM}"
            )
        elif kind == 2:
            lines.append(f"job id=garbage{i} text=k k k not a problem")
        elif kind == 3:
            lines.append(f"job id=malformed{i} seed=1")
        else:
            lines.append(
                f"job id=budget{i} seed={1000 + i} tables=1 "
                f"total-budget-ms=0 text={PROBLEM}"
            )
    return "\n".join(lines) + "\n"


def raw_result(line):
    """The raw `\"result\": ...` bytes of a response line ('' if absent)."""
    at = line.find('"result": ')
    return line[at:-1] if at >= 0 else ""


def normalize_seconds(text):
    """Blanks the one wall-clock field of every response line."""
    return re.sub(r'"seconds": [0-9.eE+-]+', '"seconds": _', text)


def run_server(cli, stream, serve_jobs, cache_bytes):
    cmd = [cli, "--serve", "--max-retries", "2"]
    if serve_jobs > 1:
        cmd += ["--serve-jobs", str(serve_jobs)]
    if cache_bytes is not None:
        cmd += ["--cache-bytes", str(cache_bytes)]
    for spec in INJECT:
        cmd += ["--inject", spec]
    proc = subprocess.run(
        cmd,
        input=stream,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"server (serve_jobs={serve_jobs}) exited {proc.returncode}\n"
        f"stderr: {proc.stderr}"
    )
    return proc.stdout


def check_contract(lines, jobs, label):
    taxonomy = {
        "ok", "parse_error", "timed_out", "cancelled",
        "resource_exhausted", "internal",
    }
    seen = {}
    for i, line in enumerate(lines[:-1]):
        response = json.loads(line)  # well-formed JSON, or this throws
        assert response["status"] in taxonomy, f"{label}: {line}"
        seen.setdefault(response["status"], 0)
        seen[response["status"]] += 1
        # Responses arrive in request order: response i answers job i.
        prefix = ["ok", "dup", "garbage", "malformed", "budget"][i % 5]
        assert response["id"] == f"{prefix}{i}", (
            f"{label} line {i}: {response['id']}"
        )

    stats = json.loads(lines[-1])
    assert stats["status"] == "stats", f"{label}: {lines[-1]}"
    assert stats["jobs"] == jobs, f"{label}: {stats}"
    assert stats["responses"] == jobs, f"{label}: {stats}"
    classes = (
        stats["ok"] + stats["parse_error"] + stats["timed_out"]
        + stats["cancelled"] + stats["resource_exhausted"] + stats["internal"]
    )
    assert classes == jobs, f"{label}: taxonomy sum {classes} != {jobs}"
    assert stats["ok"] > 0, f"{label}: {stats}"
    assert stats["parse_error"] > 0, f"{label}: {stats}"
    assert stats["timed_out"] > 0, f"{label}: {stats}"
    assert stats["cancelled"] > 0, f"{label}: {stats}"
    assert stats["retries"] > 0, f"{label}: {stats}"
    assert stats["cache"]["hits"] > 0, f"{label}: {stats}"
    assert stats["cache"]["bytes"] <= stats["cache"]["budget"], (
        f"{label}: {stats}"
    )

    fi = stats["fault_injection"]
    for spec in INJECT:
        site = spec.split(":")[0]
        assert site in fi, f"{label}: site {site} never hit: {fi}"
        assert fi[site]["fired"] > 0, f"{label}: site {site} never fired: {fi}"

    payloads = {
        raw_result(line)
        for i, line in enumerate(lines[:-1])
        if i % 5 == 1 and json.loads(line)["status"] == "ok"
    }
    assert payloads, f"{label}: no duplicate job completed"
    assert len(payloads) == 1, (
        f"{label}: duplicate jobs answered with {len(payloads)} distinct "
        f"payloads"
    )
    return seen, stats


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("cli", help="path to the ftes_cli binary")
    ap.add_argument("--jobs", type=int, default=200)
    ap.add_argument(
        "--serve-jobs", type=int, default=0,
        help="additionally run the stream through a server of this width "
             "and byte-diff its output against the width-1 run",
    )
    ap.add_argument(
        "--cache-bytes", type=int, default=None,
        help="result-cache budget of both runs (default: the server's)",
    )
    args = ap.parse_args()

    stream = make_stream(args.jobs)
    width1_out = run_server(args.cli, stream, 1, args.cache_bytes)
    lines = width1_out.splitlines()
    assert len(lines) == args.jobs + 1, (
        f"expected {args.jobs} responses + 1 stats line, got {len(lines)}"
    )
    seen, stats = check_contract(lines, args.jobs, "width 1")

    diffed = ""
    if args.serve_jobs > 1:
        wide_out = run_server(
            args.cli, stream, args.serve_jobs, args.cache_bytes
        )
        check_contract(
            wide_out.splitlines(), args.jobs,
            f"serve-jobs={args.serve_jobs}",
        )
        want = normalize_seconds(width1_out)
        got = normalize_seconds(wide_out)
        if want != got:
            for n, (a, b) in enumerate(
                zip(want.splitlines(), got.splitlines())
            ):
                if a != b:
                    sys.stderr.write(
                        f"first divergence at line {n}:\n"
                        f"  width 1: {a}\n"
                        f"  width {args.serve_jobs}: {b}\n"
                    )
                    break
            raise AssertionError(
                f"--serve-jobs {args.serve_jobs} output is not "
                f"byte-identical to the width-1 run (modulo seconds)"
            )
        diffed = (
            f"; serve-jobs={args.serve_jobs} byte-identical modulo seconds"
        )

    counts = ", ".join(f"{k}={v}" for k, v in sorted(seen.items()))
    print(f"serve_soak: {args.jobs} jobs ok ({counts}; "
          f"cache hits={stats['cache']['hits']}, "
          f"retries={stats['retries']}{diffed})")


if __name__ == "__main__":
    sys.exit(main())
