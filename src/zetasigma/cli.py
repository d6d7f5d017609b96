"""Command-line front end.

Subcommands
-----------
enumerate     list compositions / duality classes at a given weight
delta         apply the duality-contraction map to one class
rank-table    exact ranks and kernel ranks of the alpha / delta matrices
eval          high-precision evaluation of sigma / symmetric zeta tails
verify        check a named identity numerically (or exactly) and report
delta-matrix  the even-composition x self-dual-class coefficient matrix

Exit status: 0 = success / all checks passed, 1 = a verification failed,
2 = usage or configuration error.  Data goes to stdout, logs to stderr.
All configuration is via flags; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from mpmath import mp

from .compositions import (
    ENUM_FILTERS,
    DualityClass,
    enumerate_compositions,
    format_class,
    format_composition,
    parse_composition,
)
from .delta import (
    delta_class,
    delta_explicit,
    delta_inductive,
    delta_submatrix,
    family_all_twos,
    family_even_alternating,
    family_leshchiner,
    family_selfdual_t4,
    family_t_family,
)
from .exact_linalg import kernel_of_alpha, kernel_of_delta
from .lincomb import LinComb, Poly
from . import numerics as num

__all__ = ["main"]

_STANDARD_DIGIT_CAP = 64
_STANDARD_WEIGHT_CAP = 12


# ---------------------------------------------------------------------------
# small output helpers
# ---------------------------------------------------------------------------


def _emit(fmt: str, payload, text_lines, csv_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    elif fmt == "csv":
        print("\n".join(csv_lines))
    else:
        print("\n".join(text_lines))


def _comp_text(a) -> str:
    return "(" + format_composition(a) + ")"


def _lincomb_text(lc: LinComb) -> str:
    if lc.is_zero:
        return "0"
    parts = []
    for b in lc.support():
        c = lc.coefficient_of(b)
        bs = format_class(b) if isinstance(b, DualityClass) else _comp_text(b)
        parts.append(f"{c!s}*{bs}" if not isinstance(c, Poly) else f"({c!s})*{bs}")
    return " + ".join(parts)


def _digit_gate(digits: int, extended: bool) -> None:
    cap = num.PRECISION.cap if extended else _STANDARD_DIGIT_CAP
    if digits < 1 or digits > cap:
        raise ValueError(
            f"--digits must be in 1..{cap}"
            + ("" if extended else " (use --extended for more)")
        )


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    items = enumerate_compositions(args.weight, args.filter)
    class_like = args.filter in ("classes", "self_dual_classes")
    payload = {
        "weight": args.weight,
        "filter": args.filter,
        "count": len(items),
        "items": [
            {"class": list(c.rep)} if class_like else list(c) for c in items
        ],
    }
    text = [format_class(c) if class_like else _comp_text(c) for c in items]
    csv = [format_composition(c.rep if class_like else c) for c in items]
    _emit(args.format, payload, text, csv)
    return 0


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def _cmd_delta(args) -> int:
    a = parse_composition(args.cls)
    c = DualityClass.of(a)
    results = {}
    if args.method in ("inductive", "both"):
        results["inductive"] = delta_class(c)
    if args.method in ("explicit", "both"):
        results["explicit"] = delta_explicit(c)
    if args.method == "both" and results["inductive"] != results["explicit"]:
        print(
            f"delta mismatch for {format_class(c)}: inductive and explicit "
            "evaluations disagree",
            file=sys.stderr,
        )
        return 1
    lc = next(iter(results.values()))
    if args.ring == "poly":
        lc = lc.scale(Poly((1,)))
    payload = {
        "class": list(c.rep),
        "method": args.method,
        "ring": args.ring,
        "delta": lc.to_json_obj(),
    }
    text = [f"delta {format_class(c)} = {_lincomb_text(lc)}"]
    csv = [f"{lc.coefficient_of(b)!s},{format_composition(b)}" for b in lc.support()]
    _emit(args.format, payload, text, csv)
    return 0


# ---------------------------------------------------------------------------
# rank-table
# ---------------------------------------------------------------------------


def _cmd_rank_table(args) -> int:
    cap = 16 if args.extended else _STANDARD_WEIGHT_CAP
    if args.max_weight < 0 or args.max_weight > cap:
        raise ValueError(
            f"--max-weight must be in 0..{cap}"
            + ("" if args.extended else " (use --extended for more)")
        )
    rows = []
    lo = 0 if args.map == "delta" else 1
    for k in range(lo, args.max_weight + 1):
        cert = (
            kernel_of_delta(k, need_basis=False)
            if args.map == "delta"
            else kernel_of_alpha(k, need_basis=False)
        )
        rows.append(
            {
                "weight": k,
                "map": args.map,
                "rows": cert.n_rows,
                "cols": cert.n_cols,
                "rank": cert.rank,
                "kernel_rank": cert.n_cols - cert.rank,
            }
        )
        print(f"computed {args.map} rank at weight {k}", file=sys.stderr)
    payload = {"map": args.map, "max_weight": args.max_weight, "table": rows}
    header = "weight,map,rows,cols,rank,kernel_rank"
    csv = [header] + [
        f'{r["weight"]},{r["map"]},{r["rows"]},{r["cols"]},{r["rank"]},{r["kernel_rank"]}'
        for r in rows
    ]
    text = [header.replace(",", "\t")] + [
        f'{r["weight"]}\t{r["map"]}\t{r["rows"]}\t{r["cols"]}\t{r["rank"]}\t{r["kernel_rank"]}'
        for r in rows
    ]
    _emit(args.format, payload, text, csv)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    _digit_gate(args.digits, args.extended)
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    with mp.workprec(num.work_bits(args.digits + 12, 1 << 12)):
        if args.sigma is not None:
            a = parse_composition(args.sigma)
            kind, arg_text = "sigma", _comp_text(a)
            val = num.sigma_tail(a, args.n, args.digits)
        else:
            a = parse_composition(args.zeta_tail)
            c = DualityClass.of(a)
            kind, arg_text = "zeta-tail", format_class(c)
            val = num.zeta_sym_tail(c, args.n, args.digits)
        vs = mp.nstr(val.value, args.digits + 2)
        es = mp.nstr(val.abs_error, 3)
    payload = {
        "kind": kind,
        "argument": list(a),
        "n": args.n,
        "digits": args.digits,
        "value": vs,
        "abs_error": es,
    }
    text = [f"{kind} {arg_text} at n={args.n}: {vs} +/- {es}"]
    csv = [f"{kind},{format_composition(a)},{args.n},{vs},{es}"]
    _emit(args.format, payload, text, csv)
    return 0


# ---------------------------------------------------------------------------
# verify: the identity registry
# ---------------------------------------------------------------------------


def _nc(name: str, lhs, rhs, digits: int) -> dict:
    """Numeric check: |lhs - rhs| (with enclosure widths) against 10^-digits."""
    res = num.residual_upper(lhs, rhs)
    tol = mp.mpf(10) ** (-digits)
    return {
        "name": name,
        "kind": "numeric",
        "residual": mp.nstr(res, 3),
        "tolerance": mp.nstr(tol, 3),
        "passed": bool(res <= tol),
    }


def _ec(name: str, ok: bool) -> dict:
    return {"name": name, "kind": "exact", "passed": bool(ok)}


def _no_params(params: dict, allowed=()) -> None:
    bad = sorted(set(params) - set(allowed))
    if bad:
        raise ValueError(f"unknown --params keys: {', '.join(bad)}")


def _id_euler(d: int, params: dict) -> list:
    _no_params(params)
    di = d + 8
    lhs = num.zeta_int(2, di)
    rhs = num.sigma_tail((2,), 0, di).scale(3)
    return [_nc("zeta(2) == 3*sigma(2)", lhs, rhs, d)]


def _id_zeta3(d: int, params: dict) -> list:
    _no_params(params)
    di = d + 8
    lhs = num.zeta_int(3, di)
    rhs = num.evaluate(LinComb({(3,): 2, (2, 1): 3}), 0, di)
    return [_nc("zeta(3) == 2*sigma(3) + 3*sigma(2,1)", lhs, rhs, d)]


def _id_weight4(d: int, params: dict) -> list:
    _no_params(params)
    di = d + 8
    p4 = num.pi(di).pow_int(4)
    return [
        _nc(
            "sigma(4) == 17*pi^4/3240",
            num.sigma_tail((4,), 0, di),
            p4.scale(Fraction(17, 3240)),
            d,
        ),
        _nc(
            "sigma(2,2) == pi^4/1944",
            num.sigma_tail((2, 2), 0, di),
            p4.scale(Fraction(1, 1944)),
            d,
        ),
        _nc(
            "2*sigma(3,1) + 3*sigma(2,1,1) == pi^4/1620",
            num.evaluate(LinComb({(3, 1): 2, (2, 1, 1): 3}), 0, di),
            p4.scale(Fraction(1, 1620)),
            d,
        ),
    ]


_EU87_FIRST = LinComb(
    {(4, 1): 1, (3, 2): 6, (3, 1, 1): 4, (2, 3): 6, (2, 2, 1): 9, (2, 1, 2): 9, (2, 1, 1, 1): 6}
)
_EU87_SECOND = LinComb(
    {(4, 1): 11, (3, 2): 10, (3, 1, 1): 30, (2, 2, 1): 21, (2, 1, 2): 15, (2, 1, 1, 1): 45}
)


def _id_eu87(d: int, params: dict) -> list:
    _no_params(params)
    di = d + 8
    s5 = num.sigma_tail((5,), 0, di)
    return [
        _nc("sigma(5), depth-mixed expansion", s5, num.evaluate(_EU87_FIRST, 0, di), d),
        _nc("sigma(5), second expansion", s5, num.evaluate(_EU87_SECOND, 0, di), d),
    ]


def _id_eu88(d: int, params: dict) -> list:
    _no_params(params)
    di = d + 8
    lhs = num.sigma_tail((4, 1), 0, di).scale(4)
    rhs = num.evaluate(LinComb({(2, 2, 1): 6, (3, 1, 1): 22, (2, 1, 1, 1): 33}), 0, di)
    return [_nc("4*sigma(4,1) == 6*sigma(2,2,1) + 22*sigma(3,1,1) + 33*sigma(2,1,1,1)", lhs, rhs, d)]


def _id_zucker(d: int, params: dict) -> list:
    _no_params(params, ("r",))
    r = int(params.get("r", 3))
    if r < 1 or r > 8:
        raise ValueError("zucker: r must be in 1..8")
    di = d + 8
    p = num.pi(di)
    checks = [
        _nc(
            f"sigma(2^{r}) == pi^{2 * r}/(9^{r}*({2 * r})!)",
            num.sigma_tail((2,) * r, 0, di),
            p.pow_int(2 * r).scale(Fraction(1, 9**r * math.factorial(2 * r))),
            d,
        ),
        _nc(
            f"sigma(1,2^{r - 1}) == pi^{2 * r - 1}*sqrt(3)/(3^{2 * r}*({2 * r - 1})!)",
            num.sigma_tail((1,) + (2,) * (r - 1), 0, di),
            (p.pow_int(2 * r - 1) * num.sqrt3(di)).scale(
                Fraction(1, 3 ** (2 * r) * math.factorial(2 * r - 1))
            ),
            d,
        ),
    ]
    return checks


def _id_th7(d: int, params: dict) -> list:
    _no_params(params, ("a", "b"))
    a = int(params.get("a", 1))
    b = int(params.get("b", 1))
    if a < 1 or b < 0:
        raise ValueError("th7: need a >= 1 and b >= 0")
    di = d + 8
    comp = (2,) * a + (1,) + (2,) * b
    lhs = num.sigma_tail(comp, 0, di)
    rhs = num.th7_coeffs(a, b).evaluate(di)
    return [_nc(f"sigma(2^{a},1,2^{b}) == closed form", lhs, rhs, d)]


def _id_th8(d: int, params: dict) -> list:
    _no_params(params, ("a", "b"))
    a = int(params.get("a", 1))
    b = int(params.get("b", 1))
    if a < 0 or b < 0:
        raise ValueError("th8: need a >= 0 and b >= 0")
    di = d + 8
    comp = (2,) * a + (3,) + (2,) * b
    lhs = num.sigma_tail(comp, 0, di)
    rhs = num.th8_coeffs(a, b).evaluate(di)
    return [_nc(f"sigma(2^{a},3,2^{b}) == closed form", lhs, rhs, d)]


def _id_zagier(d: int, params: dict) -> list:
    _no_params(params, ("a", "b"))
    a = int(params.get("a", 1))
    b = int(params.get("b", 1))
    if a < 0 or b < 0:
        raise ValueError("zagier: need a >= 0 and b >= 0")
    di = d + 8
    comp = (2,) * a + (3,) + (2,) * b
    lhs = num.zeta_sym_tail(DualityClass.of(comp), 0, di)
    rhs = num.zagier_coeffs(a, b).evaluate(di)
    return [_nc(f"zeta(2^{a},3,2^{b}) == closed form", lhs, rhs, d)]


def _id_bbb(d: int, params: dict) -> list:
    _no_params(params, ("k",))
    k = int(params.get("k", 6))
    if k < 2 or k % 2 or k > 12:
        raise ValueError("bbb: k must be even, 2..12")
    di = d + 8
    lhs = num.zeta_int(k, di)
    rhs = num.evaluate(-family_even_alternating(k)[1], 0, di)
    return [_nc(f"zeta({k}) == alternating even-composition sum", lhs, rhs, d)]


def _id_leshchiner(d: int, params: dict) -> list:
    _no_params(params, ("k",))
    k = int(params.get("k", 6))
    if k < 4 or k % 2 or k > 12:
        raise ValueError("leshchiner: k must be even, 4..12")
    di = d + 8
    lhs = num.zeta_int(k, di).scale(2 - Fraction(2, 2 ** (k - 1)))
    rhs = num.evaluate(family_leshchiner(k)[1], 0, di)
    return [_nc(f"2*(1-2^(1-{k}))*zeta({k}) == alternating depth sum", lhs, rhs, d)]


def _id_all_twos(d: int, params: dict) -> list:
    _no_params(params, ("m", "n"))
    m = int(params.get("m", 3))
    n = int(params.get("n", 0))
    if m < 1 or m > 6 or n < 0:
        raise ValueError("all-twos: need 1 <= m <= 6 and n >= 0")
    di = d + 8
    _, rhs_lc = family_all_twos(m)
    lhs = num.zeta_sym_tail(DualityClass.of((2,) * m), n, di)
    rhs = num.evaluate(rhs_lc, n, di)
    return [_nc(f"zeta-tail(2^{m}) at n={n} == weighted sigma tails", lhs, rhs, d)]


def _id_th17(d: int, params: dict) -> list:
    _no_params(params, ("r", "n"))
    r = int(params.get("r", 2))
    n = int(params.get("n", 0))
    if r < 1 or r > 4 or n < 0:
        raise ValueError("th17: need 1 <= r <= 4 and n >= 0")
    di = d + 8
    lhs_lc, rhs_lc = family_selfdual_t4(r)
    checks = [_ec(f"delta of signed height-weighted sum, weight {2 * r}", delta_inductive(lhs_lc) == rhs_lc)]
    lhs = num.evaluate(lhs_lc, n, di)
    rhs = num.evaluate(rhs_lc, n, di)
    checks.append(_nc(f"numeric contraction at n={n}", lhs, rhs, d))
    return checks


def _id_th18(d: int, params: dict) -> list:
    _no_params(params, ("k",))
    k = int(params.get("k", 6))
    if k < 2 or k % 2 or k > 12:
        raise ValueError("th18: k must be even, 2..12")
    lhs_lc, rhs_lc = family_t_family(k)
    return [_ec(f"one-parameter delta identity, weight {k}", delta_inductive(lhs_lc) == rhs_lc)]


_BBB_CONSTANTS = {
    4: Fraction(17, 2**4),
    6: Fraction(163, 2**7),
    8: Fraction(1373, 2**10),
    10: Fraction(11143, 2**13),
    12: Fraction(61835987, 2**16 * 691),
}


def _id_bbb_coeffs(d: int, params: dict) -> list:
    _no_params(params)
    return [
        _ec(f"rational coefficient at k={k}", num.bbb_coefficient(k) == v)
        for k, v in sorted(_BBB_CONSTANTS.items())
    ]


def _id_t1_spotcheck(d: int, params: dict) -> list:
    _no_params(params, ("weight",))
    w = int(params.get("weight", 5))
    if w < 2 or w > 8:
        raise ValueError("t1-spotcheck: weight must be 2..8")
    di = d + 8
    checks = []
    for c in enumerate_compositions(w, "classes"):
        dlc = delta_class(c)
        for n in (0, 1, 3):
            lhs = num.zeta_sym_tail(c, n, di)
            rhs = num.evaluate(dlc, n, di)
            checks.append(_nc(f"zeta-tail{format_class(c)} at n={n}", lhs, rhs, d))
    return checks


IDENTITIES = {
    "euler": _id_euler,
    "zeta3": _id_zeta3,
    "weight4": _id_weight4,
    "eu87": _id_eu87,
    "eu88": _id_eu88,
    "zucker": _id_zucker,
    "th7": _id_th7,
    "th8": _id_th8,
    "zagier": _id_zagier,
    "bbb": _id_bbb,
    "leshchiner": _id_leshchiner,
    "all-twos": _id_all_twos,
    "th17": _id_th17,
    "th18": _id_th18,
    "bbb-coeffs": _id_bbb_coeffs,
    "t1-spotcheck": _id_t1_spotcheck,
}


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"--params entries must look like key=value: {item!r}")
        k, _, v = item.partition("=")
        try:
            out[k.strip()] = int(v)
        except ValueError:
            raise ValueError(f"--params values must be integers: {item!r}") from None
    return out


def _cmd_verify(args) -> int:
    _digit_gate(args.digits, args.extended)
    params = _parse_params(args.params)
    fn = IDENTITIES[args.identity]
    with mp.workprec(num.work_bits(args.digits + 12, 1 << 12)):
        checks = fn(args.digits, params)
    passed = all(c["passed"] for c in checks)
    payload = {
        "identity": args.identity,
        "digits": args.digits,
        "params": params,
        "passed": passed,
        "checks": checks,
    }
    text = [f"identity: {args.identity} (digits={args.digits})"]
    for c in checks:
        if c["kind"] == "numeric":
            text.append(
                f'  [numeric] {c["name"]}: residual <= {c["residual"]}, '
                f'tolerance {c["tolerance"]}: '
                + ("PASS" if c["passed"] else "FAIL")
            )
        else:
            text.append(f'  [exact]   {c["name"]}: ' + ("PASS" if c["passed"] else "FAIL"))
    text.append("result: " + ("PASS" if passed else "FAIL"))
    header = "name,kind,residual,tolerance,passed"
    csv = [header] + [
        f'"{c["name"]}",{c["kind"]},{c.get("residual", "")},{c.get("tolerance", "")},{c["passed"]}'
        for c in checks
    ]
    _emit(args.format, payload, text, csv)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# delta-matrix
# ---------------------------------------------------------------------------


def _cmd_delta_matrix(args) -> int:
    k = args.weight
    if k < 0 or k % 2 or k > 16:
        raise ValueError("--weight must be even, 0..16")
    m = delta_submatrix(k)
    payload = {"weight": k, "rows": len(m), "matrix": [list(r) for r in m]}
    text = [" ".join(f"{x:>4d}" for x in row) for row in m] or ["(empty)"]
    csv = [",".join(str(x) for x in row) for row in m]
    _emit(args.format, payload, text, csv)
    return 0


# ---------------------------------------------------------------------------
# parser / main
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zetasigma",
        description="Exact combinatorics and certified high-precision numerics "
        "for central-binomial sums and symmetric zeta tails.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default: text)",
        )

    sp = sub.add_parser("enumerate", help="list compositions or duality classes")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--filter", choices=ENUM_FILTERS, default="admissible")
    add_format(sp)
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("delta", help="expand the contraction map on one class")
    sp.add_argument("--class", dest="cls", required=True, metavar="A1,A2,...")
    sp.add_argument("--method", choices=("inductive", "explicit", "both"), default="both")
    sp.add_argument("--ring", choices=("int", "poly"), default="int")
    add_format(sp)
    sp.set_defaults(fn=_cmd_delta)

    sp = sub.add_parser("rank-table", help="exact rank/kernel table for alpha or delta")
    sp.add_argument("--map", choices=("alpha", "delta"), required=True)
    sp.add_argument("--max-weight", type=int, required=True)
    sp.add_argument("--extended", action="store_true", help="allow weights up to 16")
    add_format(sp)
    sp.set_defaults(fn=_cmd_rank_table)

    sp = sub.add_parser("eval", help="evaluate a sigma tail or symmetric zeta tail")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--sigma", metavar="A1,A2,...")
    g.add_argument("--zeta-tail", dest="zeta_tail", metavar="A1,A2,...")
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--digits", type=int, default=40)
    sp.add_argument("--extended", action="store_true", help="allow more digits")
    add_format(sp)
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("verify", help="check a named identity and report residuals")
    sp.add_argument("--identity", choices=sorted(IDENTITIES), required=True)
    sp.add_argument(
        "--params",
        nargs="*",
        metavar="KEY=INT",
        help="integer parameters for the identity (e.g. k=8, a=2 b=1)",
    )
    sp.add_argument("--digits", type=int, default=40)
    sp.add_argument("--extended", action="store_true", help="allow more digits")
    add_format(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("delta-matrix", help="even-composition coefficient matrix")
    sp.add_argument("--weight", type=int, required=True)
    add_format(sp)
    sp.set_defaults(fn=_cmd_delta_matrix)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except num.CapabilityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
