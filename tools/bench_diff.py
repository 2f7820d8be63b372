#!/usr/bin/env python3
"""Compares BENCH_*.json reports (bench/bench_report.h) across commits.

    python3 tools/bench_diff.py fold OUT RUN RUN RUN [RUN ...]
    python3 tools/bench_diff.py diff BEFORE [BEFORE ...] -- AFTER [AFTER ...]

`fold` writes the median of three or more runs of one bench as one report
with the same schema plus "runs": the deterministic metrics must agree
across the runs, and every wall-clock field becomes its median.

`diff` compares two sides, each one report (a folded one or a single
run) or three or more runs that it folds first.  Every metric is
deterministic work -- evaluations, heap pops, replayed events, resume
rate, search quality -- except the wall-clock ones: an entry's
wall_seconds and the metrics named *_per_sec or *_seconds.  A
deterministic metric that differs, or an entry or metric that one side
lacks, fails the diff (exit 1).  Wall-clock medians are reported against
the +-15 % run-to-run noise band of the reference machine and never fail
the diff: a wall-clock change is a claim only with medians of >= 3 runs
on one machine.  Build metadata (compiler, build type, threads) that
differs is reported, not failed: the work counters are thread-count
invariant.
"""
import json
import statistics
import sys

NOISE = 0.15  # run-to-run wall-clock noise band (ROADMAP)
META = ("bench", "threads", "compiler", "build_type")


def is_wall_clock(name):
    return (name == "wall_seconds" or name.endswith("_per_sec")
            or name.endswith("_seconds"))


def load(path):
    with open(path) as f:
        report = json.load(f)
    report.setdefault("runs", 1)
    return report


def entries(report):
    return {e["name"]: e for e in report["entries"]}


def fold(reports, what):
    """The median report of `reports` (runs of one bench and build)."""
    if len(reports) < 3:
        sys.exit("bench_diff: %s: fold needs >= 3 runs, got %d"
                 % (what, len(reports)))
    first = reports[0]
    for r in reports[1:]:
        for key in META:
            if r.get(key) != first.get(key):
                sys.exit("bench_diff: %s: runs differ in %s (%r vs %r)"
                         % (what, key, first.get(key), r.get(key)))
        if list(entries(r)) != list(entries(first)):
            sys.exit("bench_diff: %s: runs differ in their entries" % what)
    out = {key: first[key] for key in META if key in first}
    out["runs"] = len(reports)
    out["entries"] = []
    for name, entry in entries(first).items():
        runs = [entries(r)[name] for r in reports]
        folded = {"name": name,
                  "wall_seconds": statistics.median(
                      e["wall_seconds"] for e in runs),
                  "metrics": {}}
        for metric, value in entry["metrics"].items():
            values = [e["metrics"].get(metric) for e in runs]
            if is_wall_clock(metric):
                folded["metrics"][metric] = statistics.median(values)
            elif any(v != value for v in values):
                sys.exit("bench_diff: %s: deterministic metric %s/%s differs "
                         "across runs: %r" % (what, name, metric, values))
            else:
                folded["metrics"][metric] = value
        out["entries"].append(folded)
    return out


def side(paths, what):
    reports = [load(p) for p in paths]
    return reports[0] if len(reports) == 1 else fold(reports, what)


def band(metric, before, after):
    """The change and its verdict against the noise band."""
    if not before:
        return "n/a"
    change = after / before - 1
    if metric.endswith("_per_sec"):  # a rate: higher is faster
        change = before / after - 1 if after else float("inf")
    verdict = ("within noise" if abs(change) <= NOISE
               else "faster beyond noise" if change < 0
               else "slower beyond noise")
    return "%+6.1f %% time  %s" % (100 * change, verdict)


def diff(before, after):
    failures = []
    for key in META:
        if before.get(key) != after.get(key):
            print("note: %s differs: %r -> %r"
                  % (key, before.get(key), after.get(key)))
    for label, report in (("before", before), ("after", after)):
        if report["runs"] < 3:
            print("note: %s is %d run(s), not a median of >= 3: its "
                  "wall-clock is not evidence" % (label, report["runs"]))
    b_entries, a_entries = entries(before), entries(after)
    for name in sorted(b_entries.keys() | a_entries.keys()):
        if name not in b_entries or name not in a_entries:
            failures.append("entry %s only on one side" % name)
    print("%-34s %14s %14s" % ("wall-clock (median)", "before", "after"))
    for name, b in b_entries.items():
        a = a_entries.get(name)
        if a is None:
            continue
        rows = [("wall_seconds", b["wall_seconds"], a["wall_seconds"])]
        for metric in sorted(b["metrics"].keys() | a["metrics"].keys()):
            bv, av = b["metrics"].get(metric), a["metrics"].get(metric)
            if bv is None or av is None:
                failures.append("%s/%s only on one side" % (name, metric))
            elif is_wall_clock(metric):
                rows.append((metric, bv, av))
            elif bv != av:
                failures.append("%s/%s: %r -> %r" % (name, metric, bv, av))
        for metric, bv, av in rows:
            print("%-34s %14.6g %14.6g   %s"
                  % (name + "/" + metric, bv, av, band(metric, bv, av)))
    if failures:
        print("\nFAIL: deterministic work differs:")
        for f in failures:
            print("  " + f)
        return 1
    print("\nOK: every deterministic metric matches")
    return 0


def main(argv):
    if len(argv) >= 4 and argv[0] == "fold":
        folded = fold([load(p) for p in argv[2:]], argv[2])
        with open(argv[1], "w") as f:
            json.dump(folded, f, indent=1)
            f.write("\n")
        return 0
    if len(argv) >= 4 and argv[0] == "diff" and "--" in argv:
        cut = argv.index("--")
        if cut > 1 and cut < len(argv) - 1:
            return diff(side(argv[1:cut], "before"),
                        side(argv[cut + 1:], "after"))
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
