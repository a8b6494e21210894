"""The qtoda benchmark: one workload, one process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``commute``, ``build``, ``limits`` and
``verify_all``.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it prints the per-layer metrics of one traced pass
(see ``tracing.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the run's metadata.  The exit code is 0 when every
output matched its reference digest, 1 when one did not, and 2 when the
benchmark could not run.

Each process is started with ``PYTHONHASHSEED=0`` and without
``QTODA_THREADS``, so the CLI runs its checks sequentially.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
QTODA = os.path.join(ROOT, "src", "qtoda")
WORKLOADS = ("commute", "build", "limits", "verify_all")
#: percentile reported as item_tail_ms: the highest with ten samples
#: beyond it in the fewest warm passes the worker runs (3, 4, 3 and 3 of
#: 32, 30, 14 and 70 samples).  It is fixed per workload so that it names
#: the same item rank on every run.
TAIL_PCT = {"commute": 89, "build": 91, "limits": 76, "verify_all": 95}
SETUP_PROBES = 5          # extra set-up-only processes per untraced run
DEADLINE_S = 170          # the whole run, children included
PINNED_ENV = {"PYTHONHASHSEED": "0", "QTODA_THREADS": None}

END_TO_END = {
    "setup_s": "s", "cold_s": "s", "pass_s": "s",
    "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {}
for _layer in ("scalars", "torus", "diffop", "qrep", "engine", "limits",
               "degenerations", "cli"):
    PER_LAYER[_layer + ".self_s"] = "s"
for _name in ("scalars.mul_calls", "scalars.add_calls",
              "scalars.fraction_ops", "torus.shift_substitute_calls",
              "torus.poly_mul_calls", "torus.rat_normalize_calls",
              "diffop.compose_calls", "diffop.product_terms",
              "qrep.normal_order_calls", "cli.checks_failed",
              "engine.words", "diffop.shift_terms", "scalars.terms_max",
              "scalars.terms_total", "torus.den_terms"):
    PER_LAYER[_name] = "count"
for _name in ("diffop.compose_s", "diffop.gauge_s", "diffop.quotient_s",
              "diffop.automorphism_s", "diffop.factor_conjugate_s",
              "qrep.rep_s", "qrep.serre_s", "engine.expand_s",
              "engine.reduce_s", "limits.quasiclassical_s", "limits.jet_s",
              "limits.cm_s", "degenerations.macdonald_s",
              "degenerations.gauge_check_s"):
    PER_LAYER[_name] = "s"
PER_LAYER["trace.overhead"] = "ratio"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    for key, value in PINNED_ENV.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def spawn(args, deadline):
    """Run one worker to completion.  Returns its JSON, with the set-up
    time in raw seconds and in reference seconds (see ``calibrate.py``):
    from the moment before the process starts to the moment the worker
    would time its first item, less the time the worker spent sampling,
    and divided by the speed those samples measured."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + args
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out: %s" % " ".join(args)) from exc
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s"
                         % (" ".join(args), proc.returncode, proc.stderr))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_raw_s"] = out["ready_at"] - started - out["stolen_s"]
    out["setup_s"] = out["setup_raw_s"] / out["speed"]
    return out


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_record():
    lines, sha = 0, hashlib.sha256()
    for name in sorted(os.listdir(QTODA)):
        if name.endswith(".py"):
            with open(os.path.join(QTODA, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            sha.update(name.encode() + b"\0" + data)
    return lines, sha.hexdigest()


def bypass_checks(workload, trace):
    """Which layers a workload must leave alone, measured in the trace."""
    layers, calls = trace["layers"], trace["calls_by_layer"]
    checks = {}
    if workload == "build":
        checks["compose_calls_zero"] = layers["diffop.compose_calls"] == 0
    if workload in ("commute", "build"):
        checks["limits_calls_zero"] = calls["limits"] == 0
        checks["degenerations_calls_zero"] = calls["degenerations"] == 0
    if workload == "commute":
        share = trace["self_share"]
        checks["compose_torus_scalars_ge_90pct"] = (
            trace["compose_self_share"] + share["torus"]
            + share["scalars"] >= 0.9)
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference",
                        default=os.path.join(BENCH, "reference.json"),
                        help="digest file the outputs are checked against")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: -O strips the package's assert checks",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(QTODA, "__init__.py")):
        print("error: no qtoda sources at %s" % QTODA, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, meta = run(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(args, deadline):
    name, seed = args.workload, str(args.seed)
    probes = [] if args.trace else [
        spawn(["setup", name, seed], deadline) for _ in range(SETUP_PROBES)]
    out = spawn(["measure", name, seed, str(args.seconds), str(args.trace),
                 str(TAIL_PCT[name]), os.path.abspath(args.reference)],
                deadline)
    setup = probes + [out]

    warm_median = statistics.median(p["s"] for p in out["warm"])
    samples = out["item_ms"]
    if args.trace:
        trace = out["trace"]
        values = dict(trace["layers"])
        values["trace.overhead"] = trace["traced_pass_s"] / warm_median
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        trace = None
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "cold_s": out["cold"]["s"],
            "pass_s": warm_median,
            "item_p50_ms": statistics.median(samples),
            "item_tail_ms": percentile(samples, TAIL_PCT[name]),
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}

    lines, src_sha = source_record()
    meta = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_qtoda_lines": lines,
        "src_qtoda_sha256": src_sha, "env": PINNED_ENV,
        "attempted": out["attempted"], "failed": out["failed"],
        "failed_frac": out["failed"] / out["attempted"],
        "failures": out["failures"],
        "order": out["order"],
        "setup": [{"s": p["setup_s"], "raw_s": p["setup_raw_s"]}
                  for p in setup],
        "cold": out["cold"],
        "warm": out["warm"],
        "item_tail": {"percentile": TAIL_PCT[name],
                      "samples": len(samples)},
    }
    if trace is not None:
        meta["self_share"] = trace["self_share"]
        meta["compose_self_share"] = trace["compose_self_share"]
        meta["calls_by_layer"] = trace["calls_by_layer"]
        meta["bypass"] = bypass_checks(name, trace)
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return result, meta


if __name__ == "__main__":
    sys.exit(main())
