#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    SPARK_DRIVER_MEM=4g python3 perfbench/selftest.py

It runs every workload on a tiny catalog (SF 0.01) for a few seconds,
untraced and traced, and asserts that every end-to-end and per-layer metric
in BENCHMARK.json is emitted with its unit, that nothing fails, that a wrong
result handed to the checker is counted as failed, and that the benchmark
refuses to run where the program's sources are absent.
"""
import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "4",
                             "--trace", str(trace), "--sf", "0.01", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)
    print(f"ok: {msg}")


def main():
    for w in [x["name"] for x in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(w, trace)
            check(code == 0 and lines, f"{w} trace={trace} exits 0 with output")
            res = json.loads(lines[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{w}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w} trace={trace}: correct, {res['attempted']} attempted, none failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w} trace={trace}: every {key} metric with its unit")

    code, lines = run("search", 0, "--corrupt")
    res = json.loads(lines[-1])
    check(code == 0 and res["failed"] >= 1 and not res["correct"],
          f"a wrong result is counted: {res['failed']} of {res['attempted']} failed")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p)
    code, lines = run("search", 0, cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not lines, "refuses to run without the program's sources")


if __name__ == "__main__":
    main()
