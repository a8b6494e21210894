"""Self-test of the benchmark itself, not of qtoda.

    python3 bench/selftest.py [WORKLOAD ...]

1. Schema: a short ``verify_all`` run with tracing off and one with it on
   print exactly the metrics ``BENCHMARK.json`` declares, each with its
   declared unit and a name made of ``[A-Za-z0-9_.-]``.
2. Failure path: against a temporary copy of ``reference.json`` with one
   digest changed, the run reports ``failed_frac > 0`` and exits nonzero.
   The committed reference file is not touched.
3. Determinism and bypass, for each named workload (default: all four):
   traced runs with seeds 1, 1 and 2 repeat every exact count, order their
   items by the seed, and pass the bypass checks the trace records.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError("no result from %s:\n%s"
                             % (" ".join(cmd), proc.stderr))
    return proc.returncode, json.loads(lines[-2])["meta"], \
        json.loads(lines[-1])


def expect(cond, message, failures):
    print("%s  %s" % ("ok  " if cond else "FAIL", message))
    if not cond:
        failures.append(message)


def test_schema(spec, failures):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, _, result = bench("verify_all", 1, trace)
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(code == 0, "trace %d run exits 0" % trace, failures)
        expect(sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"],
               "trace %d result has exactly the four keys" % trace, failures)
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1,
               "trace %d outputs all correct" % trace, failures)
        metrics = result["metrics"]
        expect(set(metrics) == set(declared),
               "trace %d prints every %s metric and no other"
               % (trace, key), failures)
        expect(all(NAME.match(name) and m["unit"] == declared.get(name)
                   and isinstance(m["value"], (int, float))
                   for name, m in metrics.items()),
               "trace %d metrics carry valid names and declared units"
               % trace, failures)


def test_failure_path(failures):
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)
    key = "verify_all/max-n5"
    reference[key] = "0" * 64
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reference.json")
        with open(path, "w") as fh:
            json.dump(reference, fh)
        code, meta, result = bench("verify_all", 1, 0, "--reference", path)
    expect(code != 0, "a wrong reference digest makes the run exit nonzero",
           failures)
    expect(meta["failed_frac"] > 0 and result["failed"] > 0
           and not result["correct"],
           "a wrong reference digest is reported as failed_frac > 0",
           failures)


def test_determinism(spec, workload, failures):
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    runs = [bench(workload, seed, 1) for seed in (1, 1, 2)]
    (_, m1, r1), (_, m2, r2), (_, m3, r3) = runs
    for name in counts:
        values = [r["metrics"][name]["value"] for r in (r1, r2, r3)]
        expect(len(set(values)) == 1,
               "%s: %s repeats exactly across runs and seeds %s"
               % (workload, name, values), failures)
    expect(m1["order"] == m2["order"],
           "%s: the same seed gives the same item order" % workload,
           failures)
    expect(len(m1["order"]) == 1 or m1["order"] != m3["order"],
           "%s: another seed gives another item order" % workload,
           failures)
    expect(sorted(m1["order"]) == sorted(m3["order"]),
           "%s: every seed runs the same item set" % workload, failures)
    for meta in (m1, m2, m3):
        for check, ok in meta["bypass"].items():
            expect(ok, "%s: bypass check %s (seed %d)"
                   % (workload, check, meta["seed"]), failures)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    failures = []
    test_schema(spec, failures)
    test_failure_path(failures)
    for workload in workloads:
        test_determinism(spec, workload, failures)
    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
