#!/usr/bin/env python3
"""Build and run the service-loop benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Builds `perfbench/` (a cargo package of its own that depends on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it with the given arguments, and relays
its output. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Exits non-zero, without
printing a result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    binary = os.path.join(target, "release", "vod-perfbench")
    try:
        ran = subprocess.run(
            [binary, *sys.argv[1:]], env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    if ran.returncode != 0:
        fail(f"benchmark failed with exit code {ran.returncode}")

    lines = ran.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not a JSON result: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    sys.stdout.write(ran.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
