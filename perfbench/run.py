#!/usr/bin/env python3
"""Build and run the Sperke benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <fed_flash|fed_longtail|shootout> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) against the crates in
this checkout, runs one workload and relays its output. Before the
result it prints one `provenance:` line (nproc, CPU model, `rustc -V`,
the commit or a fingerprint of the sources); the last line of standard
output is the benchmark's JSON result. Exits non-zero, printing no
result, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
# A run measures for --seconds and must finish well inside 180 s.
RUN_TIMEOUT_S = 170
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")


def source_fingerprint():
    """The commit when this is a git checkout, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            return "git:" + sha
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in SOURCES:
        base = ROOT / top
        paths = [base] if base.is_file() else sorted(
            p for p in base.rglob("*")
            if p.is_file() and "target" not in p.relative_to(ROOT).parts
        )
        for path in paths:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def metric_mismatch(result, traced):
    """Names and units the result reports that BENCHMARK.json does not
    declare for this mode, or declares and the result lacks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return sorted(set(want.items()) ^ set(got.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="77")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    target = Path(os.environ.get("CARGO_TARGET_DIR", PACKAGE / "target"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(PACKAGE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "sperke-perfbench"
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", args.seed,
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    mismatch = metric_mismatch(result, traced=args.trace == "1")
    if mismatch:
        print(f"perfbench: result does not match BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 1
    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "rustc": rustc_version(),
        "source": source_fingerprint(),
        "argv": sys.argv[1:],
    }
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
