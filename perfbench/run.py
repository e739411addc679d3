#!/usr/bin/env python3
"""Build and run the repository's benchmark (a Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form builds perfbench into .bench_build/ and runs one workload
in its own process; the last line of its output is the result object.
--all runs every workload, untraced and then traced, each in its own
process, prints their results, and rewrites BENCHMARK.json from the
metric table in metrics.go.

All build output (binary, Go build cache, temporary files) stays under
.bench_build/ in the repository root.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    for d in ("gocache", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(os.environ)
    env["GOCACHE"] = os.path.join(BUILD, "gocache")
    env["GOTMPDIR"] = os.path.join(BUILD, "tmp")
    env["GOFLAGS"] = ""
    env["GOTOOLCHAIN"] = "local"
    env["GOWORK"] = "off"
    env["GOPROXY"] = "off"
    # The module replaces hidisc with the repository root; outside a
    # checkout of the repository this build fails, and so does the run.
    subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, check=True,
                   stdout=sys.stderr)
    return env


def run(args, env, capture=False):
    cmd = [BINARY, "-root", ROOT, "-workdir", BUILD] + args
    if capture:
        return subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE,
                              text=True).stdout
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def run_all(argv, env):
    seed, seconds = "1", None
    for flag, val in zip(argv, argv[1:]):
        if flag == "--seed":
            seed = val
        if flag == "--seconds":
            seconds = val
    config = json.loads(run(["-describe"], env, capture=True))
    seconds = seconds or str(config["run_seconds"])
    for w in config["workloads"]:
        for trace in ("0", "1"):
            out = run(["--workload", w["name"], "--seed", seed, "--seconds", seconds,
                       "--trace", trace], env, capture=True)
            sys.stdout.write(out)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        f.write(run(["-describe"], env, capture=True))
    print("wrote BENCHMARK.json")


def main():
    try:
        env = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if "--all" in sys.argv[1:]:
        try:
            run_all([a for a in sys.argv[1:] if a != "--all"], env)
        except subprocess.CalledProcessError as e:
            print("perfbench: %s" % e, file=sys.stderr)
            return 1
        return 0
    return run(sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
