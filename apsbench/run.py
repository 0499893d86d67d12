#!/usr/bin/env python3
"""Build the apsbench Go program from source and run it.

    python3 apsbench/run.py --workload fleet --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout. The binary, the Go build cache and
the traced runs' span files go to .bench_build/ at the checkout root;
every argument is passed through to the program (see main.go). A failed
build exits non-zero without printing a result.
"""
import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench = Path(__file__).resolve().parent
    build = bench.parent / ".bench_build"
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout, and never
    # reach for a network toolchain or module download.
    env.update(
        GOCACHE=str(build / "gocache"),
        GOTMPDIR=str(build / "tmp"),
        GOPATH=str(build / "gopath"),
        GOMODCACHE=str(build / "gopath" / "pkg" / "mod"),
        XDG_CONFIG_HOME=str(build / "config"),
        XDG_CACHE_HOME=str(build / "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
    )
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    binary = build / "bin" / "apsbench"
    proc = subprocess.run(
        ["go", "build", "-o", str(binary), "."],
        cwd=bench, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("apsbench: build failed\n")
        return 2
    args = [str(binary), "--out", str(build / "traces")] + sys.argv[1:]
    os.execve(str(binary), args, env)


if __name__ == "__main__":
    sys.exit(main())
