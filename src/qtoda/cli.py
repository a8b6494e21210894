"""Command-line interface: build operators and run the verification suites.

Exit-code contract: 0 success, 1 verification failure, 2 usage error,
3 internal invariant breach.  Operator JSON output is deterministic
(canonical term ordering, no timestamps); report wall times are advisory
and excluded from any byte-level comparison of operator payloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from fractions import Fraction
from math import comb

from .torus import TorusError
from .diffop import ROOT_WEIGHT, DiffOpError, sect6_automorphism
from .engine import (
    EngineInvariantError, build_toda_operator, verify_commuting_family,
)
from .qrep import QRepError, build_orientation, verify_serre_homomorphism
from .limits import (
    affine_classical_toda, classical_combination_fit, classical_toda,
    cm_limit, quasiclassical_limit,
)
from .degenerations import (
    macdonald_limit_closed_form, macdonald_toda_limit,
    periodic_matching_exponent, relativistic_gauge_check,
    relativistic_resolved_form, rescale_g, rescale_root_exponentials,
    substitute_g2, toda_simplified_form, toda_z_form,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def canonical_json(data):
    # the JSON forms of the package's values hold no cycles
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      check_circular=False) + "\n"


class VerificationReport:
    """Deterministically ordered check records with an overall status."""

    def __init__(self, suite):
        self.suite = suite
        self.checks = []

    def add(self, check_id, anchor, ok, residual=None, wall_ms=None):
        self.checks.append({
            "id": check_id,
            "anchor": anchor,
            "status": "pass" if ok else "fail",
            "residual": residual,
            "wall_ms": wall_ms,
        })

    def run(self, check_id, anchor, fn):
        t0 = time.monotonic()
        try:
            ok, residual = fn()
        except Exception as exc:          # noqa: BLE001 - reported, not hidden
            if isinstance(exc, EngineInvariantError):
                raise
            ok, residual = False, repr(exc)
        self.add(check_id, anchor, ok, residual,
                 round((time.monotonic() - t0) * 1000, 3))

    @property
    def ok(self):
        return all(c["status"] == "pass" for c in self.checks)

    def to_json(self):
        return {
            "suite": self.suite,
            "status": "pass" if self.ok else "fail",
            "checks": self.checks,
        }

    def text(self):
        lines = ["suite %s: %s" % (self.suite, "pass" if self.ok else "FAIL")]
        for c in self.checks:
            line = "  [%s] %s (%s)" % (c["status"], c["id"], c["anchor"])
            if c["residual"] is not None:
                label = "residual" if c["status"] == "fail" else "detail"
                line += "\n      %s: %s" % (label, c["residual"])
            lines.append(line)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args):
    if args.n < 2 or not 1 <= args.fund <= args.n - 1:
        print("error: need N >= 2 and 1 <= fundamental <= N-1",
              file=sys.stderr)
        return EXIT_USAGE
    if args.k_value is not None and not args.affine:
        print("error: --k-value only applies to affine operators",
              file=sys.stderr)
        return EXIT_USAGE
    with _open_out(args.out) as fh:
        op = build_toda_operator(args.n, args.fund, affine=args.affine,
                                 raw=args.raw)
        if args.k_value is not None:
            op = op.substitute_k(args.k_value)
        fh.write(canonical_json(op.to_json()) if args.format == "json"
                 else op.text() + "\n")
    return EXIT_OK


def _open_out(path):
    """The --out path opened for writing, or stdout without one.  It is
    opened before any work, so that a path that cannot be written is a
    usage error at once rather than after a long run."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError("cannot write --out: %s" % exc) from None


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def suite_commute(n, affine):
    report = VerificationReport("commute")

    def check():
        res = verify_commuting_family(n, affine)
        bad = [c for c in res["checks"] if not c["ok"]]
        return res["ok"], bad or None

    report.run("commute-n%d%s" % (n, "-affine" if affine else ""),
               "pairwise commutators of the operator family", check)
    return report


def suite_serre(n, affine):
    report = VerificationReport("serre")

    def check():
        res = verify_serre_homomorphism(build_orientation(n, affine))
        bad = [c for c in res["checks"] if not c["ok"]]
        return res["ok"], bad or None

    report.run("serre-n%d%s" % (n, "-affine" if affine else ""),
               "deformed Serre relations in the quantum polynomial algebra",
               check)
    return report


def suite_quasiclassical(n):
    report = VerificationReport("quasiclassical")
    classical = classical_toda(n)

    def check_rank_one(affine):
        def inner():
            op = build_toda_operator(n, 1, affine=affine)
            lim = quasiclassical_limit(op, n)
            target = affine_classical_toda(n) if affine else classical
            diff = lim - (-1 * target)
            return diff.is_zero, None if diff.is_zero else diff.to_json()
        return inner

    report.run("quasiclassical-n%d-finite" % n,
               "first operator contracts to minus the classical Hamiltonian",
               check_rank_one(False))
    report.run("quasiclassical-n%d-affine" % n,
               "affine first operator contracts to minus the coupled "
               "classical Hamiltonian", check_rank_one(True))
    for k in range(2, n):
        def check_higher(k=k):
            op = build_toda_operator(n, k)
            lim = quasiclassical_limit(op, comb(n, k))
            fit = classical_combination_fit(lim, classical)
            if fit is None:
                return False, lim.to_json()
            c, g = fit
            return True, {"C": c.to_json(), "G": g.to_json()}
        report.run("quasiclassical-n%d-k%d-fit" % (n, k),
                   "higher operator contracts to a multiple of a classical "
                   "integral plus a constant", check_higher)
    return report


def suite_automorphism(n):
    report = VerificationReport("automorphism")

    def check():
        img = sect6_automorphism(toda_z_form(n, affine=True))
        want = toda_simplified_form(n, affine=True)
        ok = img == want
        return ok, None if ok else img.to_json()

    def check_k0():
        got = toda_simplified_form(n, True).substitute_k(0)
        ok = got == toda_simplified_form(n, False)
        return ok, None if ok else got.to_json()

    report.run("automorphism-n%d" % n,
               "generator automorphism maps the first operator to the "
               "single-shift form", check)
    report.run("automorphism-n%d-k0" % n,
               "single-shift form degenerates at K = 0", check_k0)
    return report


def suite_relativistic(n):
    report = VerificationReport("relativistic")
    for periodic in (True, False):
        tag = "periodic" if periodic else "nonperiodic"

        def check(periodic=periodic):
            res = relativistic_gauge_check(n, periodic)
            if not res["ok"]:
                return False, res["outcomes"]
            fixed = rescale_g(res["operator"], -res["offset"])
            want = relativistic_resolved_form(n, periodic, 0,
                                              res["direction"])
            ok = fixed == want
            info = {"direction": res["direction"], "offset": res["offset"]}
            return ok, info if ok else res["outcomes"]

        report.run("relativistic-n%d-%s" % (n, tag),
                   "square-root Hamiltonian gauges onto the resolved form "
                   "under exactly one shift convention", check)

    def check_sub():
        got = substitute_g2(relativistic_resolved_form(n, False),
                            ROOT_WEIGHT)
        ok = got == toda_simplified_form(n, affine=False)
        return ok, None if ok else got.to_json()

    report.run("relativistic-n%d-coupling" % n,
               "nonperiodic coupling substitution recovers the single-shift "
               "form", check_sub)

    def check_periodic_match():
        found, tried = periodic_matching_exponent(n)
        return found == 1, {"matching_root_power": found, "tried": tried}

    report.run("relativistic-n%d-periodic-coupling" % n,
               "periodic coupling matches through the 2N-th root of K",
               check_periodic_match)
    return report


def suite_macdonald_limit(n):
    report = VerificationReport("macdonald-limit")
    outcome = []    # the drift limit or its exception, shared by the checks

    def limit():
        if not outcome:
            try:
                outcome.append(macdonald_toda_limit(n))
            except Exception as exc:      # noqa: BLE001 - re-raised below
                outcome.append(exc)
        if isinstance(outcome[0], Exception):
            raise outcome[0]
        return outcome[0]

    def check():
        got = limit()
        ok = got == macdonald_limit_closed_form(n)
        return ok, None if ok else got.to_json()

    def check_shift():
        shifted = rescale_root_exponentials(limit(), -ROOT_WEIGHT)
        ok = shifted == toda_simplified_form(n, affine=False)
        return ok, None if ok else shifted.to_json()

    report.run("macdonald-limit-n%d" % n,
               "drift limit of the symmetric-function operator", check)
    report.run("macdonald-limit-n%d-shift" % n,
               "limit matches the single-shift form after the variable "
               "shift", check_shift)
    return report


def suite_cm_limit(n, elliptic):
    report = VerificationReport("cm-limit")
    tag = "elliptic" if elliptic else "trig"

    def check():
        op, _ = cm_limit(n, elliptic=elliptic)
        target = affine_classical_toda(n) if elliptic else classical_toda(n)
        ok = op == target
        return ok, None if ok else op.to_json()

    report.run("cm-limit-n%d-%s" % (n, tag),
               "steepest-growth limit of the inverse-sinh-squared model "
               "with vanishing certificates", check)
    return report


def _all_reports(max_n):
    """Every suite at every rank 2..max_n, in a fixed order."""
    reports = []
    for n in range(2, max_n + 1):
        reports += [
            suite_commute(n, False), suite_commute(n, True),
            suite_serre(n, False), suite_serre(n, True),
            suite_quasiclassical(n), suite_automorphism(n),
            suite_relativistic(n), suite_macdonald_limit(n),
            suite_cm_limit(n, False), suite_cm_limit(n, True)]
    return reports


# Every verify suite with the options it reads, in call order, the rank
# first; "all" runs _all_reports.
SUITES = {
    "commute": (suite_commute, ("n", "affine")),
    "serre": (suite_serre, ("n", "affine")),
    "quasiclassical": (suite_quasiclassical, ("n",)),
    "automorphism": (suite_automorphism, ("n",)),
    "relativistic": (suite_relativistic, ("n",)),
    "macdonald-limit": (suite_macdonald_limit, ("n",)),
    "cm-limit": (suite_cm_limit, ("n", "elliptic")),
    "all": (None, ("max_n",)),
}
DEFAULT_RANK = 3


def _option(name):
    return "--" + name.replace("_", "-")


def cmd_verify(args):
    suite, reads = SUITES[args.suite]
    for name in ("n", "max_n", "affine", "elliptic"):
        value = getattr(args, name)
        if value is not None and value is not False and name not in reads:
            print("error: %s does not apply to verify %s"
                  % (_option(name), args.suite), file=sys.stderr)
            return EXIT_USAGE
    values = [getattr(args, name) for name in reads]
    if values[0] is None:
        values[0] = DEFAULT_RANK
    if values[0] < 2:
        print("error: %s must be at least 2" % _option(reads[0]),
              file=sys.stderr)
        return EXIT_USAGE
    with _open_out(args.out) as fh:
        reports = _all_reports(*values) if suite is None \
            else [suite(*values)]
        ok = all(r.ok for r in reports)
        if args.format == "json":
            payload = {"status": "pass" if ok else "fail",
                       "reports": [r.to_json() for r in reports]}
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            fh.write("".join(r.text() for r in reports)
                     + "overall: %s\n" % ("pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "not an exact rational: %r" % text) from None


def make_parser():
    parser = argparse.ArgumentParser(
        prog="qtoda",
        description="exact q-deformed Toda operators and their "
                    "verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit one operator")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--fund", type=int, required=True,
                   help="which fundamental (exterior power)")
    b.add_argument("--affine", action="store_true")
    b.add_argument("--k-value", type=_rational, default=None,
                   help="substitute an exact rational for K")
    b.add_argument("--raw", action="store_true",
                   help="skip the Weyl-vector conjugation and quotient")
    b.add_argument("--out", type=str, default=None)
    b.add_argument("--format", choices=["json", "text"], default="json")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=list(SUITES))
    v.add_argument("--n", type=int, default=None,
                   help="rank of a single suite (default %d)" % DEFAULT_RANK)
    v.add_argument("--affine", action="store_true")
    v.add_argument("--elliptic", action="store_true")
    v.add_argument("--max-n", type=int, default=None,
                   help="highest rank of all (default %d)" % DEFAULT_RANK)
    v.add_argument("--out", type=str, default=None)
    v.add_argument("--format", choices=["json", "text"], default="text")
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "build":
            return cmd_build(args)
        return cmd_verify(args)
    except QRepError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (EngineInvariantError, DiffOpError, TorusError) as exc:
        print("internal invariant violated: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
