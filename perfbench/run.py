#!/usr/bin/env python3
"""Builds and runs the RPQ-set benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload advogato-sets --seed 1 --seconds 8 --trace 0

The first run compiles the program's sources (src/main/scala) with the
benchmark driver, using sbt offline; later runs reuse the build while no
source changed. The last line of standard output is the result as JSON;
see perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH = "perfbench"
WORK = os.path.join(BENCH, "target", "run")
STAMP = os.path.join(BENCH, "target", "build-stamp.txt")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800

# Spark on JDK 17 needs the module openings that spark-submit would add.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    roots = [os.path.join("src", "main", "scala"), os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for root in roots:
        for d, _, names in os.walk(root):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for f in sources():
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Returns the runtime classpath, compiling first if a source changed."""
    want = stamp()
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            have, classpath = (fh.read().split("\n") + [""])[:2]
        if have == want and classpath:
            return classpath
    env = dict(os.environ, COURSIER_MODE="offline")
    if not env.get("SBT_OPTS"):
        opts = ["-Dsbt.override.build.repos=true", "-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.exists(repos):
            opts.append(f"-Dsbt.repository.config={repos}")
        env["SBT_OPTS"] = " ".join(opts)
    print("[perfbench] building with sbt (offline)", file=sys.stderr)
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
            cwd=BENCH, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.stdout.splitlines() if "classes" in l and os.pathsep in l]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:])
        fail(f"build failed (sbt exit {out.returncode})")
    with open(STAMP, "w") as fh:
        fh.write(want + "\n" + lines[-1].strip())
    return lines[-1].strip()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    if not os.path.isdir(os.path.join("src", "main", "scala", "repro")):
        fail("run from the root of a checkout: src/main/scala/repro is missing")
    classpath = build()
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # The benchmark sets its own Spark settings; none are inherited.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("SPARK_", "PYSPARK_"))}
    env.pop("JAVA_TOOL_OPTIONS", None)
    cmd = ["java", "-Xms3g", "-Xmx3g",
           *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS],
           f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'src', 'main', 'resources', 'log4j2.properties')}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--workdir", WORK]
    try:
        code = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 124)
    sys.exit(code)


if __name__ == "__main__":
    main()
