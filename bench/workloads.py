"""The four benchmark workloads: their fixed item sets, how one item runs
and how its output is checked.

The set of items in a workload never changes; the seed only permutes the
order in which a pass runs them.  Every item goes through qtoda's public
functions, and every output is compared with a sha256 digest of its
canonical JSON stored in ``reference.json`` beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from qtoda import cli, engine

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(os.path.dirname(HERE), "tests", "golden")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def op_json(op):
    return cli.canonical_json(op.to_json())


def strip_wall(report_json):
    """A verify report with its advisory wall times removed."""
    return dict(report_json, checks=[
        {k: v for k, v in c.items() if k != "wall_ms"}
        for c in report_json["checks"]])


class Item:
    """One unit of timed work.  ``run`` is timed; ``check`` is not, and
    returns (text whose digest is compared, extra condition holds,
    latency samples as (start, duration) in ms from the item's start or
    None for the item's own wall time, number of failing verification
    checks inside the output)."""

    def __init__(self, id, run, check):
        self.id, self.run, self.check = id, run, check


def _tag(affine):
    return "affine" if affine else "finite"


# ---------------------------------------------------------------------------
# commute: every commutator pair of the N = 5, 6 families
# ---------------------------------------------------------------------------

def commute_setup():
    """Build the families (the inputs) and one item per commutator pair.

    An item runs exactly what ``DiffOp.commutator`` runs, keeping the
    product A∘B so that its canonical JSON can be compared byte for byte;
    a zero commutator alone would not catch a composition error that is
    symmetric in its operands."""
    items, inputs = [], []
    for n in (5, 6):
        for affine in (False, True):
            family = engine.toda_family(n, affine)
            for k, op in enumerate(family, 1):
                inputs.append(("commute/family-n%d-%s-k%d"
                               % (n, _tag(affine), k), op))
            for a in range(len(family)):
                for b in range(a + 1, len(family)):
                    items.append(_commute_item(
                        "commute/n%d-%s-k%dxk%d"
                        % (n, _tag(affine), a + 1, b + 1),
                        family[a], family[b]))
    return items, inputs


def _commute_item(id, a, b):
    def run():
        ab = a.compose(b)
        return ab, ab - b.compose(a)

    def check(out):
        ab, commutator = out
        return op_json(ab), commutator.is_zero, None, 0
    return Item(id, run, check)


# ---------------------------------------------------------------------------
# build: every fundamental at N = 8, 9, serialized as `qtoda build` does
# ---------------------------------------------------------------------------

def build_setup():
    items = []
    for n in (8, 9):
        for affine in (False, True):
            for k in range(1, n):
                items.append(_build_item(n, k, affine))
    return items, []


def _build_item(n, k, affine):
    def run():
        op = engine.build_toda_operator(n, k, affine=affine)
        return cli.canonical_json(op.to_json())

    def check(text):
        return text, True, None, 0
    return Item("build/n%d-%s-k%d" % (n, _tag(affine), k), run, check)


# ---------------------------------------------------------------------------
# limits: the contraction and degeneration suites
# ---------------------------------------------------------------------------

LIMIT_SUITES = (
    [("quasiclassical", n, lambda n=n: cli.suite_quasiclassical(n))
     for n in (6, 7)]
    + [(name, n, fn)
       for n in (7, 8, 9)
       for name, fn in (
           ("macdonald-limit", lambda n=n: cli.suite_macdonald_limit(n)),
           ("relativistic", lambda n=n: cli.suite_relativistic(n)),
           ("cm-limit-trig", lambda n=n: cli.suite_cm_limit(n, False)),
           ("cm-limit-elliptic", lambda n=n: cli.suite_cm_limit(n, True)))])


def limits_setup():
    return [Item("limits/%s-n%d" % (name, n), fn, _check_report)
            for name, n, fn in LIMIT_SUITES], []


def _check_report(report):
    data = report.to_json()
    failed = sum(c["status"] != "pass" for c in data["checks"])
    return cli.canonical_json(strip_wall(data)), report.ok, None, failed


# ---------------------------------------------------------------------------
# verify_all: the CLI end to end, in-process, stdout captured
# ---------------------------------------------------------------------------

VERIFY_ALL_ARGV = ["verify", "all", "--max-n", "5", "--format", "json"]


def verify_all_setup():
    return [Item("verify_all/max-n5", _run_verify_all,
                 _check_verify_all)], []


def _run_verify_all():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(VERIFY_ALL_ARGV)
    return code, buf.getvalue()


def _check_verify_all(out):
    """The latency samples are the checks' own ``wall_ms``, placed one
    after another from the start of the run: sequential checks leave only
    small gaps between them."""
    code, text = out
    payload = json.loads(text)
    checks = [c for r in payload["reports"] for c in r["checks"]]
    samples, start = [], 0.0
    for c in checks:
        samples.append((start, c["wall_ms"]))
        start += c["wall_ms"]
    failed = sum(c["status"] != "pass" for c in checks)
    stripped = dict(payload, reports=[strip_wall(r)
                                      for r in payload["reports"]])
    ok = code == cli.EXIT_OK and payload["status"] == "pass"
    return cli.canonical_json(stripped), ok, samples, failed


# ---------------------------------------------------------------------------

WORKLOADS = {
    "commute": commute_setup,
    "build": build_setup,
    "limits": limits_setup,
    "verify_all": verify_all_setup,
}

#: latency samples one warm pass yields, where that is not its item count
SAMPLES_PER_PASS = {"verify_all": 70}


def setup(name, seed):
    """Items in the order the seed gives, and set-up outputs to check."""
    items, inputs = WORKLOADS[name]()
    random.Random(seed).shuffle(items)
    return items, inputs


def golden_text(item_id):
    """The committed golden file a set-up output must equal, if any: the
    fund-1 operators of the N = 5 families."""
    for affine in (False, True):
        if item_id == "commute/family-n5-%s-k1" % _tag(affine):
            path = os.path.join(GOLDEN,
                                "first_operator_n5_%s.json" % _tag(affine))
            with open(path) as fh:
                return fh.read()
    return None
