#!/usr/bin/env python3
"""Quick self-check of the benchmark (about a minute after the build).

    python3 perfbench/selfcheck.py

Run from the repository root. Checks that BENCHMARK.json is well formed,
then runs every workload at tiny sizes, untraced and traced, through run.py
and asserts that each run ends with one JSON result line whose metric names
and units are exactly the end-to-end (untraced) or per-layer (traced) set
BENCHMARK.json declares, with finite values, every answer correct and no
failed op. Finally runs run.py from a copy holding only BENCHMARK.json and
perfbench/, which must fail fast without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}, w
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
        names.append(w["name"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
        names.append(m["name"])
    assert len(names) == len(set(names)), "a name is used twice"
    assert 1 <= spec["run_seconds"] <= 60


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return done


def check_run(spec, workload, trace):
    done = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    label = "%s trace=%d" % (workload, trace)
    assert done.returncode == 0, "%s exited %d:\n%s" % (
        label, done.returncode, done.stderr[-3000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in
            spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, "%s metric names/units differ from BENCHMARK.json: " \
        "missing %s, extra %s" % (label, sorted(set(want) - set(got)),
                                  sorted(set(got) - set(want)))
    for k, v in result["metrics"].items():
        assert set(v) == {"value", "unit"}, (label, k)
        assert isinstance(v["value"], (int, float)) and \
            math.isfinite(v["value"]), (label, k)
    print("ok  %-28s %d metrics, %d ops" % (label, len(got),
                                            result["attempted"]))


def check_bare_copy():
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run(["--workload", "engine_cold", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "bare copy must fail"
    assert not done.stdout.strip(), "bare copy must print no result"
    print("ok  bare copy fails without a result (exit %d)" % done.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    print("ok  BENCHMARK.json")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_copy()
    return 0


if __name__ == "__main__":
    sys.exit(main())
