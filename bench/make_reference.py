"""Regenerate ``reference.json``: the sha256 digest of the canonical JSON of
every output the workloads produce, from the code as it stands.

    PYTHONHASHSEED=0 python3 bench/make_reference.py

The hash seed is the one ``run.py`` pins for its workers.  Run it only at a commit whose outputs are known to be right: the
benchmark counts every output that differs from these digests as failed.
The fund-1 operators at N = 5 are compared with ``tests/golden`` first,
and nothing is written if they differ.
"""

from __future__ import annotations

import json
import os
import sys

import worker
import workloads
from calibrate import Sampler


class Recorder:
    def __init__(self):
        self.digests = {}
        self.failures = []

    def __call__(self, item_id, text, ok=True):
        if not ok:
            self.failures.append(item_id)
        self.digests[item_id] = workloads.digest(text)

    def error(self, item_id, exc):
        self.failures.append("%s: %r" % (item_id, exc))


def main():
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.exit("run with PYTHONHASHSEED=0, as the benchmark's workers do")
    record = Recorder()
    sampler = Sampler()
    sampler.start()
    for name in workloads.WORKLOADS:
        items, inputs = workloads.setup(name, 0)
        worker.run_pass(items, record, sampler)
        for input_id, op in inputs:
            text = workloads.op_json(op)
            record(input_id, text)
            golden = workloads.golden_text(input_id)
            if golden is not None and golden != text:
                record.failures.append(input_id + " (golden)")
        print("%s: %d outputs" % (name, len(items) + len(inputs)))
    if record.failures:
        sys.exit("not written, outputs failed: %s" % record.failures)
    path = os.path.join(workloads.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(record.digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(record.digests), path))


if __name__ == "__main__":
    main()
