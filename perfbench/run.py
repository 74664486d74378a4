#!/usr/bin/env python3
"""Build the benchmark (with tsb-server) from source, then run one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build); data directories, spans and result files go to
.perfbench/. Every argument is passed on to the benchmark binary. Exits
non-zero without a result line if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    work = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The fsync-floor probe and any other temp files stay in the checkout.
    env["TMPDIR"] = tmp
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: the build failed")
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--server-bin", os.path.join(release, "tsb-server"),
        "--work", work,
    ] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
