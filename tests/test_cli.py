"""Command-line interface: output formats, exit codes, argument gates."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from conftest import tol
from zetasigma import exact_linalg, identities
from zetasigma.cli import IDENTITIES, main
from zetasigma.compositions import DualityClass
from zetasigma.delta import delta_class
from zetasigma.lincomb import LinComb

SIGMA2_45 = "0.548311355616075478824138388882008396406316634"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ enumerate

def test_enumerate_text_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--weight", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 8  # 2^(5-2) admissible


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--weight", "6", "--filter", "classes", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 10
    assert payload["items"][0] == {"class": [6]}
    code, out, _ = run(
        capsys, "enumerate", "--weight", "6", "--filter", "even_entries", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["count"] == 4
    assert [tuple(a) for a in payload["items"]] == [(2, 2, 2), (4, 2), (2, 4), (6,)]


def test_enumerate_csv(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--weight", "4", "--filter", "admissible", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert all("," in r or r.isdigit() for r in rows)


def test_enumerate_deterministic(capsys):
    a = run(capsys, "enumerate", "--weight", "7", "--filter", "classes")
    b = run(capsys, "enumerate", "--weight", "7", "--filter", "classes")
    assert a == b


def test_empty_composition_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--weight", "0")
    assert (code, out) == (0, "()\n")
    code, out, _ = run(capsys, "eval", "--sigma", "", "--digits", "5")
    assert code == 0
    assert out.startswith("sigma () at n=0: 1.0 +/- ")


def test_empty_class_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--weight", "0", "--filter", "classes")
    assert (code, out) == (0, "[]\n")
    code, out, _ = run(capsys, "delta", "--class", "")
    assert (code, out) == (0, "delta [] = 1*()\n")
    code, out, _ = run(capsys, "eval", "--zeta-tail", "", "--digits", "5")
    assert code == 0
    assert out.startswith("zeta-tail [] at n=0: 1.0 +/- ")


def test_enumerate_bad_filter(capsys):
    with pytest.raises(SystemExit) as e:
        run(capsys, "enumerate", "--weight", "4", "--filter", "bogus")
    assert e.value.code == 2


# ---------------------------------------------------------------------- delta

def test_delta_text(capsys):
    code, out, _ = run(capsys, "delta", "--class", "2")
    assert code == 0
    assert "3" in out and "(2)" in out


def test_delta_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "delta", "--class", "3,3", "--method", "both", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == [3, 3]
    got = LinComb.from_json_obj(payload["delta"])
    assert got == delta_class(DualityClass.of((3, 3)))


def test_delta_poly_ring(capsys):
    code, out, _ = run(capsys, "delta", "--class", "3", "--ring", "poly")
    assert code == 0
    assert ")*(" in out  # parenthesised polynomial coefficients


def test_delta_inadmissible(capsys):
    code, _, err = run(capsys, "delta", "--class", "1,2")
    assert code == 2
    assert "error" in err


# ----------------------------------------------------------------- rank-table

def test_rank_table_alpha(capsys):
    code, out, _ = run(
        capsys, "rank-table", "--map", "alpha", "--max-weight", "6", "--format", "json"
    )
    assert code == 0
    table = json.loads(out)["table"]
    assert [r["weight"] for r in table] == list(range(1, 7))
    assert [r["kernel_rank"] for r in table] == [0, 0, 0, 0, 0, 1]
    assert all(r["rank"] == r["cols"] - r["kernel_rank"] for r in table)


def test_rank_table_delta_csv(capsys):
    code, out, _ = run(
        capsys, "rank-table", "--map", "delta", "--max-weight", "6", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "weight,map,rows,cols,rank,kernel_rank"
    assert len(rows) == 8  # header + weights 0..6
    assert rows[-1].split(",")[-1] == "1"


def test_rank_table_weight_gate(capsys):
    code, _, err = run(capsys, "rank-table", "--map", "alpha", "--max-weight", "14")
    assert code == 2
    assert "extended" in err


# ----------------------------------------------------------------------- eval

def test_eval_sigma_text(capsys):
    code, out, _ = run(capsys, "eval", "--sigma", "2", "--digits", "30")
    assert code == 0
    assert "+/-" in out
    assert out.startswith("sigma (2) at n=0:")


def test_eval_sigma_value(capsys):
    code, out, _ = run(
        capsys, "eval", "--sigma", "2", "--digits", "40", "--format", "json"
    )
    payload = json.loads(out)
    with mp.workprec(200):
        assert abs(mp.mpf(payload["value"]) - mp.mpf(SIGMA2_45)) < tol(39)
        assert mp.mpf(payload["abs_error"]) < tol(40)


def test_eval_zeta_tail(capsys):
    code, out, _ = run(
        capsys, "eval", "--zeta-tail", "3,1", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "zeta-tail"
    assert payload["n"] == 2


def test_eval_digit_gate(capsys):
    code, _, err = run(capsys, "eval", "--sigma", "2", "--digits", "65")
    assert code == 2
    assert "--extended" in err
    code, out, _ = run(capsys, "eval", "--sigma", "2", "--digits", "65", "--extended")
    assert code == 0
    code, _, _ = run(capsys, "eval", "--sigma", "2", "--digits", "0")
    assert code == 2
    code, _, _ = run(capsys, "eval", "--sigma", "2", "--n", "-1")
    assert code == 2


# --------------------------------------------------------------------- verify

def test_verify_euler(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "euler", "--digits", "30")
    assert code == 0
    assert "result: PASS" in out


def test_verify_digit_ceiling(capsys):
    # verify adds guard digits to its request, so its ceiling sits that far
    # below the library cap: 192 runs, and 193 is a usage error naming 192
    code, out, _ = run(capsys, "verify", "--identity", "euler", "--extended", "--digits", "192")
    assert code == 0
    assert "result: PASS" in out
    code, _, err = run(capsys, "verify", "--identity", "euler", "--extended", "--digits", "193")
    assert code == 2
    assert "192" in err and "208" not in err


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_verify_registry_defaults(identity, capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", identity, "--digits", "12", "--format", "json"
    )
    assert code == 0, out
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"]


# The ordered (kind, name) list of every identity's checks at its default
# parameters, frozen from the registry's output.
VERIFY_CHECKS = {
    "all-twos": [("numeric", "zeta-tail(2^3) at n=0 == weighted sigma tails")],
    "bbb": [("numeric", "zeta(6) == alternating even-composition sum")],
    "bbb-coeffs": [("exact", f"rational coefficient at k={k}") for k in (4, 6, 8, 10, 12)],
    "eu87": [
        ("numeric", "sigma(5), depth-mixed expansion"),
        ("numeric", "sigma(5), second expansion"),
    ],
    "eu88": [
        ("numeric", "4*sigma(4,1) == 6*sigma(2,2,1) + 22*sigma(3,1,1) + 33*sigma(2,1,1,1)")
    ],
    "euler": [("numeric", "zeta(2) == 3*sigma(2)")],
    "leshchiner": [("numeric", "2*(1-2^(1-6))*zeta(6) == alternating depth sum")],
    "th17": [
        ("exact", "delta of signed height-weighted sum, weight 4"),
        ("numeric", "numeric contraction at n=0"),
    ],
    "th18": [("exact", "one-parameter delta identity, weight 6")],
    "th7": [("numeric", "sigma(2^1,1,2^1) == closed form")],
    "th8": [("numeric", "sigma(2^1,3,2^1) == closed form")],
    "weight4": [
        ("numeric", "sigma(4) == 17*pi^4/3240"),
        ("numeric", "sigma(2,2) == pi^4/1944"),
        ("numeric", "2*sigma(3,1) + 3*sigma(2,1,1) == pi^4/1620"),
    ],
    "zagier": [("numeric", "zeta(2^1,3,2^1) == closed form")],
    "zeta3": [("numeric", "zeta(3) == 2*sigma(3) + 3*sigma(2,1)")],
    "zucker": [
        ("numeric", "sigma(2^3) == pi^6/(9^3*(6)!)"),
        ("numeric", "sigma(1,2^2) == pi^5*sqrt(3)/(3^6*(5)!)"),
    ],
}


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_verify_check_names_pinned(identity, capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", identity, "--digits", "12", "--format", "json"
    )
    assert code == 0
    got = [(c["kind"], c["name"]) for c in json.loads(out)["checks"]]
    if identity == "t1-spotcheck":
        # 4 classes of weight 5, each at n = 0, 1, 3
        assert len(got) == 12
        assert got[0] == ("numeric", "zeta-tail[5] at n=0")
    else:
        assert got == VERIFY_CHECKS[identity]


def test_verify_param_validation(capsys):
    code, _, err = run(
        capsys, "verify", "--identity", "zucker", "--params", "r=9"
    )
    assert code == 2
    code, _, err = run(
        capsys, "verify", "--identity", "euler", "--params", "bogus=3"
    )
    assert code == 2
    assert "unknown" in err
    code, _, _ = run(
        capsys, "verify", "--identity", "bbb", "--params", "k=abc"
    )
    assert code == 2
    with pytest.raises(SystemExit) as e:
        run(capsys, "verify", "--identity", "nonsense")
    assert e.value.code == 2


# Every identity's --params keys with (default, lo, hi, step), as the
# verify contract states them.
DECLARED_PARAMS = {
    "euler": {},
    "zeta3": {},
    "weight4": {},
    "eu87": {},
    "eu88": {},
    "zucker": {"r": (3, 1, 8, 1)},
    "th7": {"a": (1, 1, None, 1), "b": (1, 0, None, 1)},
    "th8": {"a": (1, 0, None, 1), "b": (1, 0, None, 1)},
    "zagier": {"a": (1, 0, None, 1), "b": (1, 0, None, 1)},
    "bbb": {"k": (6, 2, 12, 2)},
    "leshchiner": {"k": (6, 4, 12, 2)},
    "all-twos": {"m": (3, 1, 6, 1), "n": (0, 0, None, 1)},
    "th17": {"r": (2, 1, 4, 1), "n": (0, 0, None, 1)},
    "th18": {"k": (6, 2, 12, 2)},
    "bbb-coeffs": {},
    "t1-spotcheck": {"weight": (5, 2, 8, 1)},
}


def test_registry_declares_the_contract_params():
    assert IDENTITIES is identities.IDENTITIES
    got = {
        name: {k: (p.default, p.lo, p.hi, p.step) for k, p in row.params.items()}
        for name, row in IDENTITIES.items()
    }
    assert got == DECLARED_PARAMS


def _bad_values(p):
    yield p.lo - 1
    if p.hi is not None:
        yield p.hi + 1
    if p.step == 2:
        yield p.lo + 1


BAD_PARAMS = [
    (name, key, value)
    for name, row in sorted(IDENTITIES.items())
    for key, p in row.params.items()
    for value in _bad_values(p)
]


@pytest.mark.parametrize("identity,key,value", BAD_PARAMS)
def test_verify_rejects_undeclared_param_values(identity, key, value, capsys):
    code, out, err = run(
        capsys, "verify", "--identity", identity, "--params", f"{key}={value}"
    )
    assert code == 2
    assert out == ""
    lo = IDENTITIES[identity].params[key].lo
    assert err.startswith(f"error: {identity}: {key} must be ")
    assert str(lo) in err


@pytest.mark.parametrize("identity", ["euler", "th17"])
def test_verify_unknown_param_names_the_identity(identity, capsys):
    code, out, err = run(capsys, "verify", "--identity", identity, "--params", "bogus=1")
    assert code == 2
    assert out == ""
    assert identity in err and "bogus" in err


ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# Runs cli.main in-process and reports its exit code and wall time on the
# last line of stderr, so interpreter start-up is not timed.
_TIMED_MAIN = """
import json, sys, time
from zetasigma.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "s": time.perf_counter() - t0}), file=sys.stderr)
"""


def _python(*argv, timeout):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--sigma", "2", "--n", "100000000000", "--format", "json"],
        ["verify", "--identity", "all-twos", "--params", "n=100000000000", "--format", "json"],
        ["verify", "--identity", "th17", "--params", "n=10000000000000", "--format", "json"],
    ],
)
def test_huge_tail_index_returns_at_once(argv):
    proc = _python("-c", _TIMED_MAIN, *argv, timeout=60)
    timing = json.loads(proc.stderr.strip().splitlines()[-1])
    assert timing["code"] == 0, proc.stderr
    assert timing["s"] < 1.0
    payload = json.loads(proc.stdout)
    with mp.workprec(200):
        if argv[0] == "eval":
            value, err = mp.mpf(payload["value"]), mp.mpf(payload["abs_error"])
            assert abs(value) <= err <= tol(40)
        else:
            assert payload["passed"] is True
            numeric = [c for c in payload["checks"] if c["kind"] == "numeric"]
            assert mp.mpf(numeric[0]["residual"]) <= tol(40)


def test_verify_all_script():
    proc = _python(str(ROOT / "scripts" / "verify_all.py"), "--digits", "12", timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "all 16 identities passed" in proc.stderr


def test_kernel_stages_script():
    proc = _python(str(ROOT / "scripts" / "kernel_stages.py"), "--weight", "6", "--basis", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "delta weight 6: 16 x 10, rank 9, nullity 1" in proc.stdout
    for stage in ("elimination", "lifting", "reconstruction", "verification", "saturation"):
        assert re.search(rf"^{stage} +\d+\.\d{{3}} s$", proc.stdout, re.M), stage
    assert re.search(r"^basis entry bits +\d+$", proc.stdout, re.M)
    assert re.search(r"^peak RSS +\d+\.\d MB$", proc.stdout, re.M)


@pytest.mark.parametrize("argv", [["--weight", "7", "--basis"], ["--weight", "6", "--map", "alpha"]])
def test_kernel_stages_prints_the_certificate_stats(monkeypatch, capsys, argv):
    # the script reads cert.stats and wraps nothing in exact_linalg
    spec = importlib.util.spec_from_file_location("kernel_stages", ROOT / "scripts" / "kernel_stages.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(exact_linalg, "_CERT_CACHE", {})  # a cold certificate
    before = dict(vars(exact_linalg))
    assert script.main(argv) == 0
    assert vars(exact_linalg).keys() == before.keys()
    assert all(vars(exact_linalg)[name] is value for name, value in before.items())
    out = capsys.readouterr().out
    for stage in exact_linalg.STAGES + ("other",):
        assert re.search(rf"^{stage} +\d+\.\d{{3}} s$", out, re.M), stage
    assert re.search(r"^rows eliminated \[\d+\] of \d+; lifting steps \d+$", out, re.M)
    # delta also sums each stage but lower over the lower certificates
    summed = re.findall(r"^  (\w+) +\d+\.\d{3} s$", out, re.M)
    if "alpha" in argv:
        assert summed == [] and "lower certificates" not in out
    else:
        assert "summed over the lower certificates, weights 0-6:" in out
        assert summed == list(exact_linalg.STAGES[1:])


def test_cert_digest_script_is_reproducible(monkeypatch, capsys):
    # two runs, each from a cold certificate cache, print the same digest
    spec = importlib.util.spec_from_file_location("cert_digest", ROOT / "scripts" / "cert_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    digests = []
    for _ in range(2):
        monkeypatch.setattr(exact_linalg, "_CERT_CACHE", {})
        assert script.main(["--weight", "6"]) == 0
        digests.append(capsys.readouterr().out)
    assert re.fullmatch(r"[0-9a-f]{64}\n", digests[0])
    assert digests[1] == digests[0]


def test_weight8_report_script():
    proc = _python(str(ROOT / "scripts" / "weight8_report.py"), "--digits", "20", timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "residual <= " in proc.stdout
    assert "(conjectural" in proc.stdout


def test_delta_tables_script():
    proc = _python(str(ROOT / "scripts" / "delta_tables.py"), "--weight", "6", timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "delta [6] = 2(6) + 2(5,1) + 2(4,1,1) + 2(3,1,1,1) + 3(2,1,1,1,1)"
    assert sum(line.startswith("delta [") for line in lines) == 10
    at = lines.index("square submatrix at weight 6:")
    assert len(lines[at + 1 :]) == 4
    assert all(re.fullmatch(r"( +\d+){4}", row) for row in lines[at + 1 :])


# --------------------------------------------------------------- delta-matrix

def test_delta_matrix_values(capsys):
    code, out, _ = run(capsys, "delta-matrix", "--weight", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["matrix"] == [[3, 6], [0, 1]]
    code, out, _ = run(capsys, "delta-matrix", "--weight", "0", "--format", "json")
    assert json.loads(out)["matrix"] == [[1]]


def test_delta_matrix_csv(capsys):
    code, out, _ = run(capsys, "delta-matrix", "--weight", "8", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 8
    assert rows[0] == "3,6,12,0,6,24,0,0"


def test_delta_matrix_odd_weight(capsys):
    code, _, err = run(capsys, "delta-matrix", "--weight", "5")
    assert code == 2
    assert "even" in err
