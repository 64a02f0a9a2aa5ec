#!/usr/bin/env python3
"""Interaction benchmark for the Humboldt reproduction.

Run from the repository root:

    SPARK_DRIVER_MEM=4g python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

The first run in a checkout builds the program and the benchmark
with sbt (offline) into `.bench_build/`; later runs reuse that build until a
source file changes. Each run starts one JVM with a local Spark session
pinned to `local[4]`, prints a detail line, and prints the result JSON as
the last line of standard output. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
MASTER = "local[4]"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
# Spark on JDK 17 needs these packages opened (the list spark-submit uses).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"]
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for r in roots:
        files += sorted(p for p in r.rglob("*") if p.is_file())
    return files


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = ["-Dsbt.offline=true", "-Xmx2g",
            f"-Dsbt.global.base={BUILD / 'sbt-global'}"]
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if repos.is_file():
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    return env


def classpath(digest):
    """Build once per source state; return the runtime classpath."""
    stamp, cp_file = BUILD / "build.stamp", BUILD / "classpath.txt"
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    print("[perfbench] building program and benchmark with sbt", file=sys.stderr)
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
             "export Runtime/fullClasspath"],
            cwd=BENCH, env=sbt_env(), stdout=subprocess.PIPE, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("sbt build timed out")
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout)
        fail("sbt build failed")
    cp_file.write_text(lines[-1])
    stamp.write_text(digest)
    return lines[-1]


def commit():
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        return "not a git checkout"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["search", "explore"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--sf", type=float, help="catalog scale factor (self-test only)")
    ap.add_argument("--corrupt", action="store_true",
                    help="hand the checker a wrong result (self-test only)")
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir() or not (ROOT / "build.sbt").is_file():
        fail("run from the repository root: the program's sources are missing")
    heap = os.environ.get("SPARK_DRIVER_MEM")
    if not heap:
        fail("SPARK_DRIVER_MEM is unset; set the driver heap, e.g. SPARK_DRIVER_MEM=4g")

    digest = source_digest()
    cp = classpath(digest)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java"] + [f"--add-opens={m}=ALL-UNNAMED" for m in OPENS] + [
        f"-Xmx{heap}",
        f"-Dspark.master={MASTER}",
        "-Dspark.driver.host=127.0.0.1",
        "-Dspark.ui.enabled=false",
        f"-Dspark.local.dir={tmp}",
        f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
        "-cp", cp, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--out", str(BUILD / "trace"),
    ] + (["--sf", str(args.sf)] if args.sf is not None else [])
      + (["--corrupt", "1"] if args.corrupt else []))
    env = dict(os.environ, PERFBENCH_COMMIT=f"{commit()} sources:{digest[:12]}")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark JVM exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    print("\n".join(lines))


if __name__ == "__main__":
    main()
