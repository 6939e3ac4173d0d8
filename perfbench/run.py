#!/usr/bin/env python3
"""Build hcserve and the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. Build outputs, the Go build cache and
the runs' scratch files stay under .bench_build (or $CARGO_TARGET_DIR when
set). The last line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    env = dict(os.environ)
    # Everything the toolchain writes (build cache, module cache, telemetry
    # under the user config dir, temporary files) stays in the build dir.
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="-mod=mod", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off", CGO_ENABLED="0")
    bin_dir = os.path.join(build, "bin")
    steps = [
        (root, ["go", "build", "-o", os.path.join(bin_dir, "hcserve"), "./cmd/hcserve"]),
        (here, ["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    args = [os.path.join(bin_dir, "perfbench"), "-hcserve", os.path.join(bin_dir, "hcserve"), "-work", work]
    args += [a.replace("--", "-", 1) if a.startswith("--") else a for a in sys.argv[1:]]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
