"""One benchmark process: set up a workload, time its passes, check every
output.  Started by ``run.py`` with a pinned environment; prints one JSON
object as its last line of standard output.

    python3 bench/worker.py setup   WORKLOAD SEED
    python3 bench/worker.py measure WORKLOAD SEED SECONDS TRACE TAIL_PCT REF

``setup`` stops at the point where the first item would be timed and
reports that moment on the monotonic clock, which ``run.py`` subtracts
from the moment it started the process, with the time spent sampling the
machine's speed and the speed measured meanwhile (see ``calibrate.py``).
``measure`` then runs a cold pass and warm passes until SECONDS have gone
by, and at least three of them and enough for ten latency samples beyond
the TAIL_PCT percentile; with TRACE=1, one warm pass and then one traced pass.
REF is the digest file.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

from calibrate import Sampler

SAMPLER = Sampler()
if __name__ == "__main__":
    SAMPLER.start()        # before the imports that set-up time covers

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import qtoda  # noqa: E402
from qtoda.qrep import qp_normal_order  # noqa: E402
from qtoda.scalars import LaurentQK  # noqa: E402
from qtoda.torus import TorusPoly, TorusRat, _normalize  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, operator_sizes  # noqa: E402

if sys.flags.optimize:
    sys.exit("-O strips the package's assert checks")
if os.path.dirname(os.path.abspath(qtoda.__file__)) != \
        os.path.join(SRC, "qtoda"):
    sys.exit("qtoda was not imported from %s" % SRC)


class Checker:
    """Compares outputs with the reference digests and counts failures."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def __call__(self, item_id, text, ok=True):
        self.attempted += 1
        want = self.reference.get(item_id)
        if not ok or want is None or workloads.digest(text) != want:
            self.failures.append(item_id)

    def error(self, item_id, exc):
        self.attempted += 1
        self.failures.append("%s: %r" % (item_id, exc))


def run_pass(items, check, sampler, tracer=None):
    """Run every item once; checks are not timed.  Returns (seconds, raw
    seconds, latency samples in ms, failing verification checks); seconds
    and samples are divided by the speed measured during each."""
    total = raw = 0.0
    samples, checks_failed = [], 0
    for item in items:
        if tracer is not None:
            tracer.profile.enable()
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:           # noqa: BLE001 - counted as failed
            out = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.profile.disable()
            sampler.sample()
        elapsed, slow = sampler.measure(t0, t1)
        total += elapsed / slow
        raw += elapsed
        if isinstance(out, Exception):
            check.error(item.id, out)
            continue
        try:
            text, ok, latency, failed = item.check(out)
        except Exception as exc:           # noqa: BLE001 - counted as failed
            check.error(item.id, exc)
            continue
        check(item.id, text, ok)
        checks_failed += failed
        for start_ms, ms in latency or [(0.0, (t1 - t0) * 1000.0)]:
            start = t0 + start_ms / 1000.0
            work, slow = sampler.measure(start, start + ms / 1000.0)
            samples.append(work * 1000.0 / slow)
    return total, raw, samples, checks_failed


def traced_pass(items, check, sampler):
    """One pass under spans and cProfile; returns the per-layer record.
    Its times are divided by the pass's mean speed.  The sampling timer is
    off, so that no kernel runs under the profiler; samples are taken
    between items instead."""
    tracer = Tracer(sampler.clock)
    tracer.install()
    sampler.stop()
    sizes = {"diffop.shift_terms": 0, "scalars.terms_total": 0,
             "scalars.terms_max": 0, "torus.den_terms": 0}
    checks_failed, total, raw = 0, 0.0, 0.0
    try:
        for item in items:
            item_s, item_raw, _, failed = run_pass(
                [item], check, sampler, tracer)
            total += item_s
            raw += item_raw
            checks_failed += failed
            for key, value in operator_sizes(tracer.outputs).items():
                sizes[key] = max(sizes[key], value) \
                    if key.endswith("_max") else sizes[key] + value
            tracer.outputs.clear()
    finally:
        sampler.start()
        tracer.uninstall()
    slow = raw / total
    qtoda_dir = os.path.dirname(os.path.abspath(qtoda.__file__))
    by_layer, by_func, calls_by_layer, stats = \
        tracer.layer_profile(qtoda_dir, BENCH)
    layer = {"%s.self_s" % name: t / slow for name, t in by_layer.items()}
    stages = tracer.stage_times()
    for name, (seconds, _) in stages.items():
        layer[name + "_s"] = seconds / slow
    layer.update({
        "scalars.mul_calls": Tracer.calls(stats, LaurentQK.__mul__)
        + Tracer.calls(stats, LaurentQK.__pow__),
        "scalars.add_calls": Tracer.calls(stats, LaurentQK.__add__),
        "scalars.fraction_ops": Tracer.fraction_ops(stats),
        "torus.shift_substitute_calls":
            Tracer.calls(stats, TorusRat.shift_substitute),
        "torus.poly_mul_calls": Tracer.calls(stats, TorusPoly.__mul__),
        "torus.rat_normalize_calls": Tracer.calls(stats, _normalize),
        "qrep.normal_order_calls": Tracer.calls(stats, qp_normal_order),
        "diffop.compose_calls": stages["diffop.compose"][1],
        "diffop.product_terms": tracer.product_terms,
        "engine.words": tracer.words,
        "cli.checks_failed": checks_failed,
    })
    layer.update(sizes)
    total_self = sum(by_layer.values())
    return {
        "layers": layer,
        "traced_pass_s": total,
        "self_share": {name: t / total_self if total_self else 0.0
                       for name, t in by_layer.items()},
        "compose_self_share": by_func.get("diffop:compose", 0.0)
        / total_self if total_self else 0.0,
        "calls_by_layer": calls_by_layer,
    }


def min_warm_passes(name, items, pct):
    """Warm passes needed for ten samples beyond the tail percentile, and
    at least three, so that each item's samples have a middle one."""
    per_pass = workloads.SAMPLES_PER_PASS.get(name, len(items))
    return max(3, math.ceil(10 / ((1 - pct / 100) * per_pass)))


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    items, inputs = workloads.setup(name, seed)
    setup = {"ready_at": time.monotonic(), "stolen_s": SAMPLER.stolen_s,
             "speed": SAMPLER.measure(SAMPLER.times[0],
                                      time.perf_counter())[1]}
    if mode == "setup":
        print(json.dumps(setup))
        return 0
    seconds, trace = float(argv[3]), argv[4] == "1"
    pct, ref_path = int(argv[5]), argv[6]
    with open(ref_path) as fh:
        check = Checker(json.load(fh))

    start = time.perf_counter()
    cold_s, cold_raw, _, _ = run_pass(items, check, SAMPLER)
    warm, samples = [], []
    need = 1 if trace else min_warm_passes(name, items, pct)
    while len(warm) < need or time.perf_counter() - start < seconds:
        pass_s, pass_raw, pass_samples, _ = run_pass(items, check, SAMPLER)
        warm.append({"s": pass_s, "raw_s": pass_raw})
        samples.extend(pass_samples)
    traced = traced_pass(items, check, SAMPLER) if trace else None

    # set-up outputs are checked last, so that checking is not set-up time
    for input_id, op in inputs:
        check(input_id, workloads.op_json(op))
        golden = workloads.golden_text(input_id)
        if golden is not None:
            check.attempted += 1
            if workloads.op_json(op) != golden:
                check.failures.append(input_id + " (golden)")

    print(json.dumps(dict(setup, **{
        "cold": {"s": cold_s, "raw_s": cold_raw},
        "warm": warm,
        "item_ms": samples,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "failures": check.failures[:20],
        "order": [item.id for item in items],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": traced,
    })))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        SAMPLER.stop()
    sys.exit(code)
