#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it asserts that
  * an untraced run prints every end-to-end metric, and a traced run
    every per-layer metric, each with the unit BENCHMARK.json gives and
    no metric measured in another unit;
  * with the `order.scheme` fault site armed
    (GRAPHORDER_FAULTS=order.scheme:1) the run still prints every
    metric and reports a nonzero `order.fallbacks` or failed count.
Exits non-zero on the first workload that breaks one of these.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s"
                             % (workload, trace, out.returncode,
                                out.stderr[-2000:]))
    for line in out.stdout.splitlines():
        if line.startswith("FAILED check") and ": unit " in line:
            raise AssertionError("%s trace=%d: %s" % (workload, trace, line))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_names(result, expected, what):
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            raise AssertionError("%s: %s not printed" % (what, m["name"]))
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError("%s: %s has unit %s, expected %s"
                                 % (what, m["name"], got[m["name"]]["unit"],
                                    m["unit"]))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        raise AssertionError("%s: unlisted metrics %s" % (what, sorted(extra)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(name, trace)
            check_names(r, bench[key], "%s trace=%d" % (name, trace))
            print("ok   %-14s trace=%d  %d metrics, %d/%d failed"
                  % (name, trace, len(r["metrics"]), r["failed"],
                     r["attempted"]))
        r = run(name, 1, {"GRAPHORDER_FAULTS": "order.scheme:1"})
        check_names(r, bench["per_layer"], "%s with fault" % name)
        fallbacks = r["metrics"]["order.fallbacks"]["value"]
        if fallbacks == 0 and r["failed"] == 0:
            raise AssertionError("%s: armed order.scheme fault went unseen"
                                 % name)
        print("ok   %-14s fault armed: order.fallbacks=%g, %d/%d failed"
              % (name, fallbacks, r["failed"], r["attempted"]))


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.exit("selftest FAILED: %s" % e)
