#!/usr/bin/env python3
"""Build the release `cookiepicker` binary and the benchmark harness, then
run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1-hot --seed 1 --seconds 20 --trace 0

Workloads: table1-hot, zipf-cold, cluster-durable. The last stdout line is
the JSON result; build output and diagnostics go to stderr. Builds land in
$CARGO_TARGET_DIR (default: .bench_build).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ("table1-hot", "zipf-cold", "cluster-durable")
# The program under test, relative to the repository root.
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """SHA-256 over the program's source files, for provenance when the
    checkout carries no commit id."""
    digest = hashlib.sha256()
    paths = []
    for entry in SOURCES:
        full = os.path.join(root, entry)
        if os.path.isfile(full):
            paths.append(entry)
        for base, dirs, files in os.walk(full):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths.extend(os.path.relpath(os.path.join(base, f), root) for f in files)
    for rel in sorted(paths):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cargo_build(args, env):
    # Cargo's own output stays off stdout: the result line must be last.
    result = subprocess.run(["cargo", "build", "--release", "--offline", *args], env=env, stdout=sys.stderr)
    if result.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "service", "Cargo.toml"), os.path.join("src", "main.rs")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a cookiepicker checkout")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo_build(["--bin", "cookiepicker"], env)
    cargo_build(["--manifest-path", HARNESS], env)

    harness = os.path.join(target, "release", "perfbench")
    os.execv(
        harness,
        [
            harness,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--bin", os.path.join(target, "release", "cookiepicker"),
            "--commit", commit(root),
            "--source-digest", source_digest(root),
            "--work-dir", ".perfbench-run",
        ],
    )


if __name__ == "__main__":
    main()
