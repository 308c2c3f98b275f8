#!/usr/bin/env python3
"""Build and run the repository benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark executable and the ctxmatch CLI from source with
dune, runs one workload, and forwards its output.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are exactly the
end_to_end metrics of BENCHMARK.json, with --trace 1 exactly the
per_layer ones.  Any mismatch between BENCHMARK.json and what the
executable printed, any wrong output and any build failure exit
non-zero.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "ctxmatch_cli.exe")
WORKDIR = ".perfbench_run"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at " + ROOT, 2)
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project: run from a checkout of the repository", 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH", 2)
    # --root pins the workspace to this checkout; dune must not wander
    # up into an enclosing project
    done = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/ctxmatch_cli.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed", 2)


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def registry(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def check_result(spec, line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON: " + line[:200]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if json.loads(json.dumps(result)) != result:
        return "result does not round-trip"
    want = registry(spec, "per_layer" if trace else "end_to_end")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            missing,
            extra,
            units,
        )
    return None


def selftest(spec):
    out = subprocess.run([EXE, "--list-metrics"], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        fail("--list-metrics failed: " + out.stderr)
    listed = json.loads(out.stdout.strip().splitlines()[-1])
    for section in ("end_to_end", "per_layer"):
        if dict(listed[section]) != registry(spec, section):
            fail("BENCHMARK.json %s differs from the executable's registry" % section)
    if sorted(listed["workloads"]) != sorted(w["name"] for w in spec["workloads"]):
        fail("BENCHMARK.json workloads differ from the executable's")
    done = subprocess.run([EXE, "--selftest"], cwd=ROOT)
    if done.returncode != 0:
        fail("selftest failed")
    print("run.py selftest ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    build()
    if args.selftest:
        selftest(spec)
        return
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--cli", CLI,
        "--workdir", WORKDIR,
        "--commit", commit(),
    ]
    # its own process group, so a timeout also takes down the serve
    # daemon the benchmark spawned
    child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail("benchmark exited with %d" % child.returncode)
    problem = check_result(spec, lines[-1], args.trace == 1)
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
