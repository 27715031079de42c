#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload failover|table_load|mrt_replay \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (its own Cargo workspace, linking the
simulator crates by path) in release mode, offline, then runs it with
the same arguments from the repository root. The build goes to
`$CARGO_TARGET_DIR`, or `.bench_build` at the repository root when that
is unset. The last line of standard output is the JSON result; build
output goes to standard error. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "scenarios", "Cargo.toml")):
        print("perfbench: the simulator crates are not here; nothing to build",
              file=sys.stderr)
        return 1
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
