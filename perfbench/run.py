#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload rpc-mix-512 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds the Go program in this
directory (its own module, which replaces the `hatrpc` module with the
checkout root) into the build directory, `$CARGO_TARGET_DIR` or
`.bench_build`, with the Go build cache kept there too, so nothing is
written outside the checkout. It then runs one workload in one process
and passes its output through: every metric with its unit and clock, and
as the last line one JSON object with the keys correct, attempted, failed
and metrics. The metric names are checked against BENCHMARK.json: the
end_to_end list for --trace 0 and the per_layer list for --trace 1.

The exit code is non-zero if the sources are missing, the build fails, a
correctness gate fails, the metrics differ from BENCHMARK.json, or the
run exceeds its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("go.mod", "internal", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found in %s: run from a full checkout" % (need, ROOT))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        fail("build failed", 2)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build, "spans-%s.jsonl" % args.workload)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    out = r.stdout.rstrip("\n")
    if r.returncode != 0:
        # A failed correctness gate still reports what it measured, with
        # "correct": false.
        print(out)
        fail("benchmark exited with code %d" % r.returncode, r.returncode)
    res = json.loads(out.rsplit("\n", 1)[-1])
    listed = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        print(out.rsplit("\n", 1)[0], file=sys.stderr)
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, unit changes %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in set(want) & set(got) if want[k] != got[k])), 4)
    print(out)


if __name__ == "__main__":
    main()
