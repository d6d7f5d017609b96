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
import functools
import json
import sys

from mpmath import mp

from .compositions import (
    ENUM_FILTERS,
    DualityClass,
    enumerate_compositions,
    format_class,
    format_composition,
    parse_composition,
)
from .delta import delta_class, delta_explicit, delta_submatrix
from .exact_linalg import kernel_of_alpha, kernel_of_delta
from . import identities
from .identities import IDENTITIES
from .lincomb import LinComb, Poly, _basis_str
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


def _lincomb_text(lc: LinComb) -> str:
    if lc.is_zero:
        return "0"
    parts = []
    for b in lc.support():
        c = lc.coefficient_of(b)
        bs = _basis_str(b)
        parts.append(f"{c!s}*{bs}" if not isinstance(c, Poly) else f"({c!s})*{bs}")
    return " + ".join(parts)


def _digit_gate(digits: int, extended: bool, guard: int = 0) -> None:
    """Gate --digits at the standard cap, or with --extended at the library
    cap less the ``guard`` digits the command adds to its request."""
    cap = num.PRECISION.cap - guard if extended else _STANDARD_DIGIT_CAP
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
    text = [_basis_str(c) for c in items]
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
    if args.sigma is not None:
        a = parse_composition(args.sigma)
        kind, arg_text = "sigma", _basis_str(a)
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
# verify
# ---------------------------------------------------------------------------


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
    _digit_gate(args.digits, args.extended, identities._GUARD_DIGITS)
    params = _parse_params(args.params)
    checks = identities.run(args.identity, args.digits, params)
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


@functools.cache
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
