#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds `perfbench` (a package of
its own that depends on the crates under `crates/`) with cargo in release
mode, runs one workload with `ORIANNA_THREADS=1`, and prints the metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. End-to-end times are
scaled to a reference host speed by a probe the binary times between ops;
the `info` line holds the same figures in raw wall time (`wall_*`).

Every run appends a full record to `.perfbench-out/results.jsonl`: the
binary's record (metrics, exact counts, sample counts) plus a host stamp
(nproc, AVX, `ORIANNA_*` variables, git revision or source digest, rustc
version). When an earlier record of the same workload, seed and source
digest exists there, the exact counts must match it, or the run is marked
incorrect. Traced runs also write their spans to
`.perfbench-out/trace-<workload>-<seed>.json` (Chrome trace-event format).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("robot_frames", "fleet_serve", "accel_codesign")
OUT_DIR = ".perfbench-out"
# Past the measured seconds a run sets up several times and checks its
# outputs; this bounds the whole child process.
CHILD_SLACK_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, env):
    manifest = os.path.join(bench_dir, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with code {proc.returncode}")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root, bench_dir):
    """SHA-256 over the Rust sources and manifests the binary is built from."""
    h = hashlib.sha256()
    roots = [os.path.join(root, "crates"), bench_dir]
    files = [os.path.join(root, "Cargo.toml"), os.path.join(root, "Cargo.lock")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith((".rs", ".toml", ".lock"))
            ]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def host_stamp(root, bench_dir, env, simd_enabled):
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "avx": "avx" in flags,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "simd_kernels": simd_enabled,
        "orianna_env": {k: v for k, v in sorted(env.items()) if k.startswith("ORIANNA_")},
        "git_rev": command_output(["git", "-C", root, "rev-parse", "HEAD"]),
        "source_digest": source_digest(root, bench_dir),
        "rustc": command_output(["rustc", "--version"]),
    }


def previous_exact(results_path, key):
    if not os.path.isfile(results_path):
        return None
    found = None
    with open(results_path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("key") == key:
                found = rec.get("exact")
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(env["CARGO_TARGET_DIR"])
    binary = build(bench_dir, env)

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    run_env = dict(env)
    # One thread: no parallel region in the library dispatches.
    run_env["ORIANNA_THREADS"] = "1"
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(
            cmd, env=run_env, capture_output=True, text=True,
            timeout=args.seconds + CHILD_SLACK_S,
        )
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(record["metrics"]) != listed:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(record['metrics']) ^ listed)}")

    host = host_stamp(root, bench_dir, run_env, bool(record["info"].pop("simd_enabled", 0)))
    key = f"{args.workload}/{args.seed}/{host['source_digest']}"
    results_path = os.path.join(out_dir, "results.jsonl")
    before = previous_exact(results_path, key)
    correct = bool(record["correct"]) and record["failed"] == 0
    if before is not None and before != record["exact"]:
        print(f"exact counts differ from an earlier run at this seed: {before} vs {record['exact']}")
        correct = False
    with open(results_path, "a") as f:
        f.write(json.dumps({"key": key, "trace": args.trace, "host": host, **record}) + "\n")

    print("host " + json.dumps(host, sort_keys=True))
    print("exact " + json.dumps(record["exact"], sort_keys=True))
    print("info " + json.dumps(record["info"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
