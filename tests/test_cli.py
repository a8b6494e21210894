import json
import os
import os.path as osp
import subprocess
import sys

import pytest

from qtoda.cli import canonical_json, main
from qtoda.diffop import DiffOp, DiffOpError
from qtoda.torus import TorusError

GOLDEN = osp.join(osp.dirname(osp.abspath(__file__)), "golden")


def golden(name):
    with open(osp.join(GOLDEN, name + ".json")) as fh:
        return fh.read()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_build_matches_goldens(capsys, n):
    code, out, _ = run(capsys, "build", "--n", str(n), "--fund", "1")
    assert code == 0
    assert out == golden("operators/toda_n%d_k1_finite" % n)
    code, out, _ = run(capsys, "build", "--n", str(n), "--fund", "1",
                       "--affine")
    assert code == 0
    assert out == golden("operators/toda_n%d_k1_affine" % n)


@pytest.mark.parametrize("family", ["finite", "affine"])
def test_benchmark_golden_copies(family):
    # the benchmark checks its N=5 first operators against these copies
    assert golden("first_operator_n5_" + family) == \
        golden("operators/toda_n5_k1_" + family)


def test_transcription_goldens():
    # the in-repo golden files pin the canonical JSON of every published
    # closed form the suites compare against
    from qtoda.degenerations import (
        macdonald_limit_closed_form, toda_simplified_form,
    )
    for n in (2, 3, 4):
        assert canonical_json(toda_simplified_form(n, True).to_json()) \
            == golden("simplified_n%d_affine" % n)
        assert canonical_json(toda_simplified_form(n, False).to_json()) \
            == golden("simplified_n%d_finite" % n)
        assert canonical_json(macdonald_limit_closed_form(n).to_json()) \
            == golden("macdonald_limit_n%d" % n)


def test_build_is_deterministic(capsys):
    runs = {run(capsys, "build", "--n", "3", "--fund", "2")[1]
            for _ in range(3)}
    assert len(runs) == 1


def test_build_round_trip(capsys):
    code, out, _ = run(capsys, "build", "--n", "3", "--fund", "2",
                       "--affine")
    assert code == 0
    op = DiffOp.from_json(json.loads(out))
    from qtoda.engine import build_toda_operator
    assert op == build_toda_operator(3, 2, affine=True)


def test_build_k_value_substitution(capsys):
    code, out, _ = run(capsys, "build", "--n", "2", "--fund", "1",
                       "--affine", "--k-value", "0")
    assert code == 0
    assert out == golden("operators/toda_n2_k1_finite")
    code, out, _ = run(capsys, "build", "--n", "2", "--fund", "1",
                       "--k-value", "1/2")
    assert code == 2


def test_build_raw_and_text_formats(capsys):
    code, out, _ = run(capsys, "build", "--n", "2", "--fund", "1",
                       "--format", "text")
    assert code == 0 and "T[" in out
    code, raw, _ = run(capsys, "build", "--n", "2", "--fund", "1", "--raw")
    assert code == 0
    op = DiffOp.from_json(json.loads(raw))
    assert op.mode == "gl"
    # the raw operator still carries the diagonal q powers
    assert not op.terms[(2, 0)].num.terms[(0, 0)].is_one


def test_build_usage_errors(capsys):
    assert run(capsys, "build", "--n", "1", "--fund", "1")[0] == 2
    assert run(capsys, "build", "--n", "3", "--fund", "3")[0] == 2
    assert run(capsys, "build", "--n", "3")[0] == 2


def test_build_to_file(tmp_path, capsys):
    path = tmp_path / "op.json"
    code, out, _ = run(capsys, "build", "--n", "2", "--fund", "1",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == golden("operators/toda_n2_k1_finite")


@pytest.mark.parametrize("argv", [
    ("build", "--n", "3", "--fund", "1"),
    ("verify", "serre", "--n", "3"),
], ids=["build", "verify"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    # a path that cannot be opened is a usage error, not a traceback
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and not path.exists()


@pytest.mark.parametrize("argv,attr", [
    (("build", "--n", "3", "--fund", "1"), "build_toda_operator"),
    (("verify", "all", "--max-n", "4"), "_all_reports"),
], ids=["build", "verify-all"])
def test_out_is_opened_before_any_work(tmp_path, capsys, monkeypatch,
                                       argv, attr):
    # an unwritable --out is reported before a single operator is built
    from qtoda import cli as cli_mod

    def never(*a, **kw):
        raise AssertionError("work started before --out was opened")

    monkeypatch.setattr(cli_mod, attr, never)
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out:")


@pytest.mark.parametrize("argv,flag", [
    (("verify", "automorphism", "--n", "3", "--affine"), "--affine"),
    (("verify", "quasiclassical", "--elliptic"), "--elliptic"),
    (("verify", "serre", "--max-n", "6"), "--max-n"),
    (("verify", "all", "--n", "7"), "--n"),
    (("verify", "all", "--n", "0"), "--n"),
], ids=["automorphism-affine", "quasiclassical-elliptic", "serre-max-n",
        "all-n", "all-n0"])
def test_verify_rejects_options_its_suite_ignores(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: %s does not apply to verify %s\n" % (flag, argv[1])


@pytest.mark.parametrize("argv", [
    ("verify", "commute", "--n", "3"),
    ("verify", "commute", "--n", "3", "--affine"),
    ("verify", "serre", "--n", "4", "--affine"),
    ("verify", "quasiclassical", "--n", "3"),
    ("verify", "automorphism", "--n", "3"),
    ("verify", "relativistic", "--n", "3"),
    ("verify", "macdonald-limit", "--n", "3"),
    ("verify", "cm-limit", "--n", "3"),
    ("verify", "cm-limit", "--n", "3", "--elliptic"),
])
def test_verify_suites_pass(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "FAIL" not in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "3")
    assert code == 0
    assert out.strip().endswith("overall: pass")


@pytest.mark.parametrize("value", ["1/0", "abc", ""])
def test_build_bad_k_value_is_usage_error(capsys, value):
    code, out, err = run(capsys, "build", "--n", "2", "--fund", "1",
                         "--affine", "--k-value", value)
    assert code == 2 and out == ""
    assert "rational" in err


@pytest.mark.parametrize("flag", [
    ("--k-symbolic",), ("--orientation", "default"), ("--rho-conjugated",)])
def test_build_rejects_removed_options(capsys, flag):
    assert run(capsys, "build", "--n", "2", "--fund", "1", *flag)[0] == 2


@pytest.mark.parametrize("argv", [
    ("verify", "commute", "--n", "1"),
    ("verify", "commute", "--n", "1", "--affine"),
    ("verify", "quasiclassical", "--n", "1"),
    ("verify", "cm-limit", "--n", "1", "--elliptic"),
    ("verify", "serre", "--n", "0"),
    ("verify", "all", "--max-n", "1"),
])
def test_verify_below_rank_two_is_usage_error(capsys, argv):
    # no check can run below N = 2; a report of "pass" would be vacuous
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "at least 2" in err


@pytest.mark.parametrize("error", [DiffOpError, TorusError],
                         ids=["DiffOpError", "TorusError"])
def test_algebra_breach_exit_code(capsys, monkeypatch, error):
    # a DiffOpError or TorusError escaping the pipeline is an internal
    # breach (exit 3), not a usage error, although both are ValueErrors
    from qtoda import cli as cli_mod

    def boom(*a, **kw):
        raise error("coefficient does not descend to the quotient")

    monkeypatch.setattr(cli_mod, "build_toda_operator", boom)
    code, _, err = run(capsys, "build", "--n", "2", "--fund", "1")
    assert code == 3
    assert "invariant" in err


def test_cli_subprocess_determinism():
    src = osp.join(osp.dirname(osp.dirname(osp.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    qtoda = [sys.executable, "-m", "qtoda.cli"]
    cmd = qtoda + ["build", "--n", "3", "--fund", "2", "--affine"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    bad = subprocess.run(qtoda + ["build", "--n", "1", "--fund", "1"],
                         capture_output=True, env=env)
    assert bad.returncode == 2


def test_relativistic_report_records_convention(capsys):
    code, out, _ = run(capsys, "verify", "relativistic", "--n", "2")
    assert code == 0
    assert "'direction': -1" in out and "'offset': -2" in out


def test_internal_invariant_exit_code(capsys, monkeypatch):
    from qtoda import cli as cli_mod
    from qtoda.engine import EngineInvariantError

    def boom(*a, **kw):
        raise EngineInvariantError("letter multisets differ")

    monkeypatch.setattr(cli_mod, "build_toda_operator", boom)
    code, _, err = run(capsys, "build", "--n", "2", "--fund", "1")
    assert code == 3
    assert "invariant" in err


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "automorphism", "--n", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    checks = payload["reports"][0]["checks"]
    assert all(c["status"] == "pass" for c in checks)
    assert all("anchor" in c for c in checks)


def test_automorphism_k0_failure_carries_the_k0_form(monkeypatch):
    from qtoda import cli as cli_mod
    real = cli_mod.toda_simplified_form

    def doubled(n, affine):
        op = real(n, affine)
        return op * 2 if affine else op

    monkeypatch.setattr(cli_mod, "toda_simplified_form", doubled)
    checks = {c["id"]: c for c in cli_mod.suite_automorphism(3).checks}
    check = checks["automorphism-n3-k0"]
    assert check["status"] == "fail"
    assert check["residual"] == (real(3, True) * 2).substitute_k(0).to_json()


def test_macdonald_limit_is_computed_once_per_suite(monkeypatch):
    from qtoda import cli as cli_mod
    from qtoda.degenerations import DegenerationError
    real = cli_mod.macdonald_toda_limit
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli_mod, "macdonald_toda_limit", counted)
    assert cli_mod.suite_macdonald_limit(4).ok
    assert calls == [4]

    # a limit that raises fails both checks with its repr, as it did when
    # each check computed the limit itself
    def boom(n):
        calls.append(n)
        raise DegenerationError("no drift limit at N=%d" % n)

    calls.clear()
    monkeypatch.setattr(cli_mod, "macdonald_toda_limit", boom)
    checks = cli_mod.suite_macdonald_limit(4).checks
    assert calls == [4]
    assert [(c["status"], c["residual"]) for c in checks] == \
        [("fail", "DegenerationError('no drift limit at N=4')")] * 2


def test_cm_limit_failures_carry_a_residual(monkeypatch):
    from qtoda import cli as cli_mod
    from qtoda.limits import SinhTerm, cm_limit

    # a wrong limit operator is reported with its JSON
    def doubled(n, elliptic):
        op, certs = cm_limit(n, elliptic=elliptic)
        return op * 2, certs

    monkeypatch.setattr(cli_mod, "cm_limit", doubled)
    check, = cli_mod.suite_cm_limit(3, False).checks
    assert check["status"] == "fail"
    assert check["residual"] == (cm_limit(3)[0] * 2).to_json()
    monkeypatch.undo()

    # a non-surviving term that does not decay raises inside cm_limit, so
    # the check fails with that error as its residual
    real = SinhTerm.survivor_degree
    monkeypatch.setattr(SinhTerm, "survivor_degree",
                        lambda self: abs(real(self)))
    check, = cli_mod.suite_cm_limit(3, False).checks
    assert check["status"] == "fail"
    assert check["residual"].startswith("LimitError('divergent term at ")
