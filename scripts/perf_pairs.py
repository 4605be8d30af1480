#!/usr/bin/env python3
"""Alternating parent/change pairs of the wall-clock benchmark.

    python3 scripts/perf_pairs.py [--parent REV] [--pairs N] [--first-seed S]
        [--seconds S] [--workloads w1,w2] [--work-dir DIR] [--json OUT]

Run from anywhere inside the repository. The parent revision (default
HEAD) is exported with `git archive` into a temporary directory; it and the
working tree are each built through their own `perfbench/run.py` with their
own CARGO_TARGET_DIR. Then, per workload, N pairs run one after the other,
pair i on seed first_seed + i for both sides, the side that runs first
alternating between pairs. Runs last BENCHMARK.json's `run_seconds` unless
--seconds says otherwise.

For each workload and each end-to-end metric BENCHMARK.json declares it
prints both sides' median and quartiles, the bound, the pairs the change won
(ties count for neither side) and two verdicts:

  gain           "gain" when the change won at least 9/10 of the pairs and
                 the medians differ, in its favour, by more than the
                 parent's interquartile range; else "no gain".
  no-regression  "unresolved" when either side's interquartile range is
                 wider than the bound (as a share of the parent's median),
                 unless every change run reads better than every parent
                 run; else "regression" when the change's median is worse
                 than the parent's by more than the bound; else "ok".

Exits 1 when a run fails or reports a failed op, or when model_ms_per_op
differs between the two sides on any seed (the fixed-prefix model cost must
repeat exactly); 2 on a build failure or bad arguments. Reads BENCHMARK.json
and perfbench/ and writes only under the work directory (and --json OUT).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

MODEL_METRIC = "model_ms_per_op"


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def export_revision(root, rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % rev)


def run_bench(tree, target_dir, workload, seed, seconds, extra=()):
    """One perfbench run; returns its parsed result line, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0", *extra]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout[-2000:])
        return None


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(parent, change, better, bound):
    """Both sides' quartiles, pairs won and the two verdicts."""
    sign = 1.0 if better == "higher" else -1.0
    p_q = [quantile(parent, q) for q in (0.25, 0.5, 0.75)]
    c_q = [quantile(change, q) for q in (0.25, 0.5, 0.75)]
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_iqr = p_q[2] - p_q[0]
    c_iqr = c_q[2] - c_q[0]
    gain_by = sign * (c_q[1] - p_q[1])
    gain = ("gain" if won >= 0.9 * len(parent) and gain_by > p_iqr
            else "no gain")
    allowed = bound * abs(p_q[1])
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(p_iqr, c_iqr) > allowed and not all_better:
        verdict = "unresolved"
    elif -gain_by > allowed:
        verdict = "regression"
    else:
        verdict = "ok"
    return {"parent": p_q, "change": c_q, "won": won, "lost": lost,
            "gain": gain, "no_regression": verdict}


def fmt(q):
    return "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=901)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload)")
    parser.add_argument("--work-dir", default=None,
                        help="keep the parent export and builds here")
    parser.add_argument("--json", default=None,
                        help="also write every run's result to this file")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = repo_root()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workloads:
        asked = args.workloads.split(",")
        unknown = [w for w in asked if w not in workloads]
        if unknown:
            parser.error("unknown workload(s): %s" % ", ".join(unknown))
        workloads = asked
    metrics = benchmark["end_to_end"]

    work = args.work_dir or tempfile.mkdtemp(prefix="perf_pairs.")
    parent_tree = os.path.join(work, "parent")
    sides = {
        "parent": (parent_tree, os.path.join(work, "parent_target")),
        "change": (root, os.path.join(work, "change_target")),
    }
    try:
        if not os.path.isdir(parent_tree):
            export_revision(root, args.parent, parent_tree)
        for side, (tree, target) in sides.items():
            sys.stderr.write("building %s (%s)\n" % (side, tree))
            if run_bench(tree, target, workloads[0], 1, 0.2,
                         ["--tiny"]) is None:
                sys.stderr.write("perf_pairs: %s did not build\n" % side)
                return 2

        failures = []
        results = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = (["parent", "change"] if i % 2 == 0
                         else ["change", "parent"])
                for side in order:
                    tree, target = sides[side]
                    result = run_bench(tree, target, workload, seed, seconds)
                    if result is None or not result.get("correct") or \
                            result.get("failed", 0) != 0:
                        failures.append("%s %s seed %d: run failed or "
                                        "reported failed ops" %
                                        (workload, side, seed))
                    runs[side].append(result)
                    sys.stderr.write(
                        "%s seed %d %s: ops_per_s %s\n" %
                        (workload, seed, side,
                         result["metrics"]["ops_per_s"]["value"]
                         if result else "-"))
                p, c = runs["parent"][-1], runs["change"][-1]
                if p and c and p["metrics"][MODEL_METRIC]["value"] != \
                        c["metrics"][MODEL_METRIC]["value"]:
                    failures.append("%s seed %d: %s differs (%r vs %r)" % (
                        workload, seed, MODEL_METRIC,
                        p["metrics"][MODEL_METRIC]["value"],
                        c["metrics"][MODEL_METRIC]["value"]))
            results[workload] = runs

            complete = [i for i in range(args.pairs)
                        if runs["parent"][i] and runs["change"][i]]
            print("%s: %d pairs, seeds %d-%d, %g s runs" % (
                workload, len(complete), args.first_seed,
                args.first_seed + args.pairs - 1, seconds))
            print("  %-16s %-6s %-5s %-30s %-30s %-7s %-8s %s" % (
                "metric", "better", "bound", "parent median [q1, q3]",
                "change median [q1, q3]", "won", "gain", "no-regression"))
            for metric in metrics:
                name = metric["name"]
                if not complete:
                    continue
                parent = [runs["parent"][i]["metrics"][name]["value"]
                          for i in complete]
                change = [runs["change"][i]["metrics"][name]["value"]
                          for i in complete]
                s = summarize(parent, change, metric["better"],
                              metric["bound"])
                print("  %-16s %-6s %-5s %-30s %-30s %-7s %-8s %s" % (
                    name, metric["better"], "%g%%" % (100 * metric["bound"]),
                    fmt(s["parent"]), fmt(s["change"]),
                    "%d/%d" % (s["won"], len(complete)), s["gain"],
                    s["no_regression"]))
            sys.stdout.flush()

        if args.json:
            with open(args.json, "w") as f:
                json.dump({"parent": args.parent, "seconds": seconds,
                           "first_seed": args.first_seed,
                           "runs": results}, f, indent=1)
        for failure in failures:
            print("FAIL: " + failure)
        return 1 if failures else 0
    finally:
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
