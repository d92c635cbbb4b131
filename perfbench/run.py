#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark driver.

    python3 perfbench/run.py --workload suite|fuzz|serve --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
driver, and the helix library it links, under $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild only what changed. Build output goes to
stderr, so the driver's result line stays the last line of stdout. The
driver runs inside the build directory, where the serve workload puts its
socket. The exit status is the driver's, or 2 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    try:
        return subprocess.run([driver] + sys.argv[1:], cwd=build_dir(),
                              timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
