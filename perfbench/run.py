#!/usr/bin/env python3
"""Build and run the omenx repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
library and the benchmark program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls reuse the
build.  The program's output is passed through; its last line is the JSON
result record, and the exit code is the program's own (nonzero on any
correctness failure).  The line before it is the provenance record: nproc,
thread-pool size, measured GEMM throughput and the source revision.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
TARGET = "omenx_perfbench"
WORKLOADS = ("spectrum_cold", "iv_scf", "dissipative_kgrid")
RUN_TIMEOUT_S = 170
PROVENANCE = "provenance: "


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then let the build system rebuild what changed."""
    out = build_dir()
    log = out / "perfbench-build.log"
    if not (out / "CMakeCache.txt").exists():
        out.mkdir(parents=True, exist_ok=True)
        with open(log, "w") as fh:
            rc = subprocess.call(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=fh, stderr=subprocess.STDOUT)
        if rc != 0:
            fail(f"configure failed, see {log}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log, "a") as fh:
        rc = subprocess.call(
            ["cmake", "--build", str(out), "--target", TARGET, "-j", jobs],
            stdout=fh, stderr=subprocess.STDOUT)
    if rc != 0:
        fail(f"build failed, see {log}")
    return out / TARGET


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        # Only this tree's own repository counts, not one that encloses it.
        if rev.returncode == 0 and len(lines) == 2 and \
                pathlib.Path(lines[0]).resolve() == ROOT.resolve():
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("run from the repository root: src/ and CMakeLists.txt not found")
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"no result record (exit code {proc.returncode})")
    # The program's provenance line, completed with the source revision,
    # goes right before the result record.
    provenance = {}
    body = []
    for line in lines[:-1]:
        if line.startswith(PROVENANCE):
            provenance = json.loads(line[len(PROVENANCE):])
        else:
            body.append(line)
    provenance["revision"] = source_revision()
    print("\n".join(body))
    print(PROVENANCE + json.dumps(provenance))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
