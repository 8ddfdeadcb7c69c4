#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 _perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Go module of its own in this directory that imports the
simulator from the enclosing repository. It is built from source on every
call; the Go build cache lives in .bench_build/ inside the checkout, so a
warm call rebuilds nothing. All arguments are passed to the benchmark
binary, whose last output line is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        # The go command keeps telemetry counters under the user config
        # directory; point it into the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def run(cmd, timeout, **kw):
    """Run cmd, killing it and waiting for it if it outlives timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout}s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: the simulator's go.mod is missing next to the benchmark", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    rc = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT, cwd=HERE, env=go_env(),
             stdout=sys.stderr)
    if rc != 0:
        print(f"run.py: build failed ({rc})", file=sys.stderr)
        return rc or 1
    return run([binary] + sys.argv[1:], RUN_TIMEOUT, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
