#!/usr/bin/env python3
"""Build the program and the benchmark harness from source, then run one
benchmark workload in a single JVM.

Usage (from the repository root):

    python3 perfbench/run.py --workload eth-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload selftest

The Scala sources under src/main/scala and perfbench/src are compiled with
the Scala compiler that ships in the Spark distribution ($SPARK_HOME/jars, or
the one next to spark-submit on PATH) into the build directory
($CARGO_TARGET_DIR, default .bench_build). Nothing is downloaded. The last
line of standard output is the result JSON; the exit code is non-zero when
the build fails, an output check fails or the result is malformed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HEAP = "3g"
# A fixed heap whose pages are all touched at start-up, so page faults of a
# growing heap do not land in the timed loop.
JVM_FLAGS = [f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:+AlwaysPreTouch"]
# A run of a workload in BENCHMARK.json must end within 180 s; the
# full paper-tables report takes longer.
RUN_TIMEOUT_S = 170
LONG_RUN_TIMEOUT_S = 900
JAVA_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources(*dirs):
    out = []
    for d in dirs:
        for base, _, files in os.walk(d):
            out += [os.path.join(base, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not os.path.isdir(jars):
        fail(2, "no Spark distribution found (set SPARK_HOME)")
    return sorted(os.path.join(jars, j) for j in os.listdir(jars) if j.endswith(".jar"))


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        fail(2, "no java found")
    return exe


def build(srcs, classpath, out):
    """Compile when the sources changed since the last build."""
    h = hashlib.sha256()
    for path in srcs:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    h.update(classpath.encode())
    stamp = h.hexdigest()[:16]
    stamp_file = os.path.join(out, "stamp")
    classes = os.path.join(out, "classes")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classes, stamp
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    t0 = time.time()
    r = subprocess.run([java(), "-Xmx1g", "-cp", classpath, "scala.tools.nsc.Main",
                        "-classpath", classpath, "-nowarn", "-d", classes] + srcs)
    if r.returncode != 0:
        fail(3, "compilation failed")
    with open(stamp_file, "w") as f:
        f.write(stamp)
    print(f"perfbench: built {len(srcs)} sources in {time.time() - t0:.1f} s", file=sys.stderr)
    return classes, stamp


def git_info():
    if not os.path.isdir(".git") or not shutil.which("git"):
        return "unknown (not a git checkout)", "unknown"
    rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True).stdout.strip()
    return rev or "unknown", "true" if dirty else "false"


def expected_metrics(workload, trace):
    """Metric names BENCHMARK.json promises for this run, if it lists the workload."""
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError:
        return None
    if workload not in [w["name"] for w in bench["workloads"]]:
        return None
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    for d in ("src/main/scala", "perfbench/src"):
        if not os.path.isdir(d):
            fail(2, f"{d} not found; run from the repository root")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(out, exist_ok=True)
    classpath = os.pathsep.join(spark_jars())
    classes, stamp = build(sources("src/main/scala", "perfbench/src"), classpath, out)

    scratch = os.path.abspath(os.path.join(out, "tmp", str(os.getpid())))
    os.makedirs(scratch)
    rev, dirty = git_info()
    cmd = [java()] + JVM_FLAGS + JAVA_OPENS + [
        f"-Djava.io.tmpdir={scratch}",
        f"-Dperfbench.localDir={scratch}",
        f"-Dperfbench.state={os.path.join(out, 'state')}",
        f"-Dperfbench.stamp={stamp}",
        f"-Dperfbench.heap=-Xmx{HEAP}",
        f"-Dperfbench.jvm={' '.join(JVM_FLAGS)}",
        f"-Dperfbench.git={rev}",
        f"-Dperfbench.dirty={dirty}",
        "-cp", os.pathsep.join([classes, "perfbench/resources", classpath]),
        "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        proc.kill()

    want = expected_metrics(a.workload, a.trace)
    limit = RUN_TIMEOUT_S if want is not None else LONG_RUN_TIMEOUT_S
    watchdog = threading.Timer(limit, expire)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line:
                last = line
                if not line.startswith("{"):
                    print(line, flush=True)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if timed_out.is_set():
        fail(4, f"run exceeded {limit} s")

    try:
        result = json.loads(last)
    except ValueError:
        fail(5, f"no result line (exit {code})")
    # The harness prints every metric; the result keeps those BENCHMARK.json
    # declares for this workload.
    if want is not None:
        missing = want - set(result["metrics"])
        if missing:
            fail(5, f"metrics {sorted(missing)} declared in BENCHMARK.json were not measured")
        result["metrics"] = {k: v for k, v in result["metrics"].items() if k in want}
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
