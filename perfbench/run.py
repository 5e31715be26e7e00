#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
hinet libraries and the hinet_perfbench binary from source into
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls rebuild only
what changed.  The binary's output is passed through unchanged, so the last
line of standard output is the result JSON.  Build output goes to
.bench_build/build.log; a failed build exits non-zero and prints no result.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "hinet_perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed; last lines of "
                                 f"{log_path}:\n" + "\n".join(tail) + "\n")
                if cmd[1] == "-S":
                    # Do not leave a half-configured tree behind.
                    (out / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(proc.returncode or 1)
    return out / "hinet_perfbench"


def source_revision() -> str:
    """The git commit when there is one, else a digest of src/."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return "commit " + proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256 " + h.hexdigest()[:16]


def main() -> int:
    binary = build()
    # The binary prints the host facts (nproc, build type, compiler).
    print(f"source: {source_revision()}", flush=True)
    proc = subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
