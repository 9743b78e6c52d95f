#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all ...    # every workload, one process
    python3 perfbench/run.py --selftest            # unit tests of the helpers

Workloads: sim-sweep, sim-explore, native-rw, service-loopback (see
perfbench/README.md). Run from anywhere; paths resolve against the
checkout holding this file. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); a traced run writes its Chrome trace-event
JSON there too.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics BENCHMARK.json lists
(--trace 0) or its per-layer metrics (--trace 1). The exit status is 0 only
when every output check passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    """Configures (once) and builds; returns the build directory."""
    if not (ROOT / "src" / "rmr" / "memory.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")
    return out


def run_binary(cmd):
    """Streams the binary's output; returns (exit code, result objects)."""
    results = []
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SRC_DIGEST=source_digest())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    for line in out.splitlines():
        print(line)
        if line.startswith("PERFBENCH_RESULT "):
            results.append(json.loads(line[len("PERFBENCH_RESULT "):]))
    return proc.returncode, results


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(result, declared):
    """The last line: exactly the metrics BENCHMARK.json declares."""
    metrics = {}
    correct = bool(result["correct"])
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} [{m['unit']}] not reported",
                  file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out = build()
    if args.selftest:
        sys.exit(subprocess.run([str(out / "perfbench_selftest")]).returncode)
    if not args.workload:
        fail("--workload is required", 2)

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(out / f"trace-{args.workload}-seed{args.seed}.json")]
    code, results = run_binary(cmd)
    if not results:
        fail(f"no result (exit status {code})")

    declared = declared_metrics(args.trace == 1)
    lines = [result_line(r, declared) for r in results]
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all(l["correct"] for l in lines),
                 "attempted": sum(l["attempted"] for l in lines),
                 "failed": sum(l["failed"] for l in lines),
                 "metrics": {f"{r['workload']}.{k}": v
                             for r, l in zip(results, lines)
                             for k, v in l["metrics"].items()}}
    print(json.dumps(final))
    sys.exit(0 if code == 0 and final["correct"] else 1)


if __name__ == "__main__":
    main()
