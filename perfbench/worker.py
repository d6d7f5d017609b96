"""One part of one round of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --part PART --seed N --trace 0|1

Imports the program from ``src/`` of the checkout, runs the workload's
operations from cold caches with each operation timed, records
``ru_maxrss`` as soon as the timed work ends, then checks every output with
``checks`` (outside the timed spans) and prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

#: seconds charged in ``round_s`` for a failed operation, as a timeout: far
#: above the cost of any operation in the workloads, so a failure always
#: reads worse than the slowest success.
FAIL_CHARGE_S = 60.0

TAIL_DIGITS = (32, 100, 200)
#: blocks of calls per precision in a round.  A round is kept short (about
#: 6 s) so that a run holds four of them: each call's time is its minimum
#: over the rounds, and more samples make that minimum steadier.
TAIL_BLOCKS = {32: 2, 100: 1, 200: 1}
TAIL_NS = (0, 1, 3, 10)
#: (weight, depth) pairs whose admissible compositions are all evaluated at
#: n = 0, so that their sum can be checked against zeta(weight).
SUM_THEOREM = ((4, 2), (5, 3))
#: (weight, closure size) slots for seeded zeta_sym_tail calls.  The cost of
#: a descent grows with the number of classes in the init/mid/fin closure,
#: so fixing it keeps the work per round the same for every seed.
ZETA_SLOTS = ((6, 5), (8, 7), (10, 9))
DELTA_MAX_WEIGHT = 14
#: classes per timed chunk of the recursion (half as many for the word
#: formula): chunks of roughly 0.1 s
DELTA_CHUNK = 20
VERIFY_PARTS = {"d40": ["--digits", "40"], "d150": ["--digits", "150", "--extended"]}


LAYERS = ("compositions", "lincomb", "stuffle", "delta", "exact_linalg", "numerics", "cli")


def import_program():
    """The package's modules by layer name (``zetasigma.stuffle`` the module,
    not the function the package re-exports under that name)."""
    mods = {name: importlib.import_module(f"zetasigma.{name}") for name in LAYERS}
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(mods["cli"].__file__).startswith(src):
        raise SystemExit(f"zetasigma was imported from {mods['cli'].__file__}, not {src}")
    return types.SimpleNamespace(**mods)


def cold(zs) -> None:
    """Empty every cache the program keeps between calls."""
    zs.delta._MEMO.clear()
    zs.exact_linalg._CERT_CACHE.clear()
    zs.numerics._REDUCE_MEMO.clear()
    for name, mod in list(sys.modules.items()):
        if name.startswith("zetasigma"):
            for val in list(vars(mod).values()):
                clear = getattr(val, "cache_clear", None)
                if callable(clear):
                    clear()


def begin_timed(zs, tracer) -> None:
    cold(zs)
    if tracer:
        tracer.start()


def end_timed(zs, tracer) -> dict:
    """Readings taken as the timed work ends, before any check runs."""
    if tracer:
        tracer.stop()
    memo = zs.delta._MEMO
    return {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "memo_entries": len(memo),
        "memo_terms": sum(len(v) for v in memo.values()),
    }


class Ops:
    """Operations attempted, their times, errors and check rejections."""

    def __init__(self, tracer=None):
        self.items: list[dict] = []
        self.tracer = tracer

    def run(self, kind: str, fn, **tags):
        op = {"kind": kind, "error": None, "problems": [], **tags}
        lo = self.tracer.mark() if self.tracer else 0
        op["t0"] = time.perf_counter()
        try:
            op["out"] = fn()
        except Exception as exc:  # a failed operation never aborts the workload
            op["error"] = f"{type(exc).__name__}: {exc}"
            op["out"] = None
        op["t1"] = time.perf_counter()
        op["s"] = op["t1"] - op["t0"]
        op["span"] = (lo, self.tracer.mark() if self.tracer else 0)
        self.items.append(op)
        return op

    def reject(self, op, problems) -> None:
        op["problems"].extend(problems)

    def select(self, kind):
        return [op for op in self.items if op["kind"] == kind]

    def ok(self, op) -> bool:
        return op["error"] is None and not op["problems"]

    def times(self, group, chunk=0) -> list[float]:
        """The timed pieces of ``group`` in a fixed order, so that the runner
        can align them across the samples of a run.  With ``chunk``, the
        operations ran back to back and are timed in chunks of that many,
        from the start of one chunk to the start of the next: the chunks
        then add up to the whole phase, including garbage collection that
        falls between two operations."""
        if not chunk:
            return [op["s"] for op in group]
        starts = [op["t0"] for op in group[::chunk]] + [group[-1]["t1"]]
        return [b - a for a, b in zip(starts, starts[1:])]

    def round_time(self, pieces=None) -> dict:
        """The pieces behind ``round_s``, and the charge for failures: each
        failed operation costs :data:`FAIL_CHARGE_S`, as a timeout would."""
        pieces = self.times(self.items) if pieces is None else pieces
        return {"s": pieces, "charge": FAIL_CHARGE_S * sum(not self.ok(op) for op in self.items)}

    def report(self) -> dict:
        errors = [op for op in self.items if op["error"] is not None]
        rejected = [op for op in self.items if op["error"] is None and op["problems"]]
        notes = [f'{op["kind"]} {op.get("k", "")}: {op["error"]}' for op in errors[:3]]
        notes += [f'{op["kind"]} {op.get("k", "")}: {op["problems"][0]}' for op in rejected[:3]]
        return {
            "attempted": len(self.items),
            "failed": len(errors) + len(rejected),
            "rejected": len(rejected),
            "notes": notes,
        }


# ---------------------------------------------------------------------------
# kernels


def kernels(zs, seed: int, tracer) -> dict:
    el = zs.exact_linalg
    ops = Ops(tracer)
    begin_timed(zs, tracer)
    for k in range(0, 13):
        ops.run("build", lambda k=k: el.delta_matrix(k), map="delta", k=k)
    for k in range(1, 13):
        ops.run("build", lambda k=k: el.alpha_matrix(k), map="alpha", k=k)
    phases = {}
    for phase, need_basis, top in (("rank", False, 13), ("basis", True, 12)):
        cold(zs)
        for name, fn, k0, k1 in (
            ("delta", el.kernel_of_delta, 0, top),
            ("alpha", el.kernel_of_alpha, 1, 12),
        ):
            for k in range(k0, k1 + 1):
                ops.run(phase, lambda fn=fn, k=k: fn(k, need_basis=need_basis), map=name, k=k)
        phases[phase] = ops.select(phase)
    cold(zs)
    for k in range(1, 13):
        def preimage(k=k):
            pre = el.preimage_lattice(k)
            # lattices_equal on the weight-12 bases (entries of ~650 bits)
            # takes minutes; there the checks below prove equality instead.
            equal = el.lattices_equal(pre.basis, el.kernel_of_delta(k).basis) if k <= 11 else None
            return pre, equal

        ops.run("preimage", preimage, map="delta", k=k)
    end = end_timed(zs, tracer)

    # --- checks, outside the timed spans
    mats = {(op["map"], op["k"]): op["out"] for op in ops.select("build") if op["out"] is not None}
    for op in ops.select("build"):
        if op["out"] is not None:
            ops.reject(op, _matrix_problems(op["map"], op["k"], op["out"]))
    rank_q: dict = {}

    def matrix(name, k):
        if (name, k) not in mats:
            mats[(name, k)] = el.delta_matrix(k) if name == "delta" else el.alpha_matrix(k)
        return mats[(name, k)]

    for op in phases["rank"] + phases["basis"]:
        cert = op["out"]
        if cert is None:
            continue
        M = matrix(op["map"], op["k"])
        key = (op["map"], op["k"])
        # At weight 13 the plain elimination takes seconds per round; the
        # paper's table alone checks that rank-only certificate.
        if key not in rank_q:
            rank_q[key] = None if op["k"] > 12 else checks.rank_mod(M, checks.check_primes(cert.primes, 1)[0])
        table = checks.DELTA_NULLITY if op["map"] == "delta" else checks.ALPHA_NULLITY
        ops.reject(
            op,
            checks.certificate_problems(
                M, cert, table[op["k"]], rank_q=rank_q[key], delta=op["map"] == "delta"
            ),
        )
    for op in ops.select("preimage"):
        if op["out"] is None:
            continue
        pre, equal = op["out"]
        k = op["k"]
        problems = []
        if pre.nullity != checks.DELTA_NULLITY[k] or pre.basis is None:
            problems.append(f"preimage nullity {pre.nullity}, table has {checks.DELTA_NULLITY[k]}")
        elif equal is False:
            problems.append("lattices_equal says the preimage differs from the delta kernel")
        else:
            problems += _preimage_problems(el, matrix, k, pre)
            if not problems and pre.basis:
                q = checks.check_primes(pre.primes, 1)[0]
                problems += checks.saturation_problems(pre.basis, len(pre.basis[0]), q)
        ops.reject(op, problems)

    out = {
        "ops": ops.report(),
        "end": end,
        "rss_mb": end["rss_mb"],
        "timed_s": sum(o["s"] for o in ops.items),
        "round": ops.round_time(),
    }
    if tracer:
        certs = [o["out"] for o in phases["rank"] + phases["basis"] if o["out"] is not None]
        certs += [o["out"][0] for o in ops.select("preimage") if o["out"] is not None]
        layer = {
            "exact_linalg.primes_used": sum(len(c.primes) for c in certs),
            "exact_linalg.basis_max_bits": max(
                [abs(int(x)).bit_length() for c in certs if c.basis for v in c.basis for x in v] or [0]
            ),
        }
        per_weight = {}
        for phase in ("rank", "basis"):
            for o in phases[phase]:
                s = tracer.summary(*o["span"]).get("exact_linalg.certified_kernel", {"total": 0.0})
                per_weight[(phase, o["k"])] = per_weight.get((phase, o["k"]), 0.0) + s["total"]
        for (phase, k), v in per_weight.items():
            name = "rank_only_s" if phase == "rank" else "basis_s"
            layer[f"exact_linalg.{name}.w{k}"] = v
        layer["exact_linalg.saturation_gap_s"] = sum(
            per_weight[("basis", k)] - per_weight[("rank", k)] for k in range(13)
        )
        out["layer"] = layer
    return out


def _matrix_problems(name, k, M) -> list[str]:
    rows = 1 if k == 0 else (0 if k == 1 else 2 ** (k - 2))
    if name == "delta":
        if M.shape[0] != rows:
            return [f"delta_matrix({k}) has {M.shape[0]} rows, expected {rows} admissible compositions"]
        if (M < 0).any():
            return [f"delta_matrix({k}) has a negative entry"]
        if len({M[:, j].tobytes() for j in range(M.shape[1])}) != M.shape[1]:
            return [f"delta_matrix({k}) has two equal columns"]
        return []
    if M.shape[1] and (M.sum(axis=0) != 3).any():
        return [f"alpha_matrix({k}) has a column whose entries do not sum to 3"]
    return []


def _preimage_problems(el, matrix, k, pre) -> list[str]:
    """delta_{k'} A_{k'} x == 0 for every lower weight k', where A_{k'} is the
    weight-k' block of rows of alpha_matrix(k), and delta_k x == 0."""
    A = matrix("alpha", k)
    row = 0
    blocks, deltas = {}, {}
    for kp in range(k):
        n_kp = matrix("delta", kp).shape[1]
        blocks[kp] = checks.sparse_rows(A[row : row + n_kp])
        deltas[kp] = checks.sparse_rows(matrix("delta", kp))
        row += n_kp
    if row != A.shape[0]:
        return ["alpha_matrix rows do not split into the lower-weight class blocks"]
    return checks.preimage_problems(pre.basis, deltas, blocks, checks.sparse_rows(matrix("delta", k)))


# ---------------------------------------------------------------------------
# delta


def delta(zs, seed: int, tracer) -> dict:
    comps = zs.compositions
    ops = Ops(tracer)
    begin_timed(zs, tracer)
    t0 = time.perf_counter()
    for k in range(DELTA_MAX_WEIGHT + 1):
        for c in comps.enumerate_compositions(k, "classes"):
            ops.run("recursion", lambda c=c: zs.delta.delta_class(c), k=k, cls=c)
    t1 = time.perf_counter()
    zs.stuffle.stuffle.cache_clear()
    for c in comps.enumerate_compositions(DELTA_MAX_WEIGHT, "classes"):
        ops.run("word", lambda c=c: zs.delta.delta_explicit(c), k=DELTA_MAX_WEIGHT, cls=c)
    t2 = time.perf_counter()
    end = end_timed(zs, tracer)

    # --- checks
    rec = {op["cls"]: op for op in ops.select("recursion")}
    for op in ops.items:
        if op["out"] is not None:
            ops.reject(op, checks.image_problems(dict(op["out"].items())))
    for op in ops.select("word"):
        other = rec[op["cls"]]
        if op["out"] is not None and other["out"] is not None and op["out"] != other["out"]:
            ops.reject(op, ["word formula and recursion disagree"])
            ops.reject(other, ["word formula and recursion disagree"])
    for a in range(2, DELTA_MAX_WEIGHT + 1):
        op = rec[zs.compositions.DualityClass.of((a,))]
        if op["out"] is not None and dict(op["out"].items()) != checks.depth1_image(a):
            ops.reject(op, [f"class ({a}) differs from the depth-1 closed form"])
    rng = random.Random(seed)
    for _ in range(6):
        k = rng.randint(4, DELTA_MAX_WEIGHT)
        op = rng.choice([o for o in rec.values() if o["k"] == k])
        n = rng.choice((10, 20, 30))
        if op["out"] is not None:
            ops.reject(op, checks.contraction_problems(op["cls"].rep, dict(op["out"].items()), n))
    out = {
        "ops": ops.report(),
        "end": end,
        "rss_mb": end["rss_mb"],
        "timed_s": t2 - t0,
        "round": ops.round_time(
            ops.times(ops.select("recursion"), chunk=DELTA_CHUNK)
            + ops.times(ops.select("word"), chunk=DELTA_CHUNK // 2)
        ),
    }
    if tracer:
        out["layer"] = {
            "delta.image_terms": end["memo_terms"]
            + sum(len(op["out"]) for op in ops.select("word") if op["out"] is not None)
        }
    return out


# ---------------------------------------------------------------------------
# tails


def _closure_size(zs, a) -> int:
    comps = zs.compositions
    seen, stack = set(), [comps.DualityClass.of(a)]
    while stack:
        c = stack.pop()
        if c in seen or not c.rep:
            continue
        seen.add(c)
        for p in (comps.init_part(c.rep), comps.mid_part(c.rep), comps.fin_part(c.rep)):
            if p:
                stack.append(comps.DualityClass.of(p))
    return len(seen)


def tail_inputs(zs, seed: int) -> list[tuple]:
    """(kind, composition, n, digits, group) for one round.  The structure
    is fixed; the seed picks the compositions, the n values and the order."""
    comps = zs.compositions
    rng = random.Random(seed)
    adm = {w: comps.enumerate_compositions(w, "admissible") for w in range(2, 11)}
    calls = []
    for d, block in ((d, b) for d in TAIL_DIGITS for b in range(TAIL_BLOCKS[d])):
        for r in range(1, 7):
            w = rng.randint(r + 1, 10)
            a = rng.choice([x for x in adm[w] if len(x) == r])
            calls.append(("sigma", a, rng.choice(TAIL_NS), d, None))
        for w, size in ZETA_SLOTS:
            pool = [x for x in adm[w] if len(x) <= 6 and _closure_size(zs, x) == size]
            calls.append(("zeta", rng.choice(pool), rng.choice(TAIL_NS), d, None))
        for w, r in SUM_THEOREM:
            for a in adm[w]:
                if len(a) == r:
                    calls.append(("zeta", a, 0, d, f"sum{w}.{r}.d{d}.{block}"))
    rng.shuffle(calls)
    return calls


def tails(zs, seed: int, tracer) -> dict:
    num = zs.numerics
    calls = tail_inputs(zs, seed)
    ops = Ops(tracer)
    begin_timed(zs, tracer)
    for kind, a, n, d, group in calls:
        fn = num.sigma_tail if kind == "sigma" else num.zeta_sym_tail
        ops.run(kind, lambda fn=fn, a=a, n=n, d=d: fn(a, n, d), a=a, n=n, d=d, group=group)
    end = end_timed(zs, tracer)

    # --- checks
    sigma_refs: dict = {}

    def sigma_ref(b, n, d):
        key = (b, n, d)
        if key not in sigma_refs:
            sigma_refs[key] = checks.sigma_direct(b, n, d + 20)
        return sigma_refs[key]

    for op in ops.items:
        val = op["out"]
        if val is None:
            continue
        a, n, d = op["a"], op["n"], op["d"]
        refs = []
        with mpmath.workdps(d + 40):
            if op["kind"] == "sigma":
                v, e = sigma_ref(a, n, d)
                refs.append(("direct summation", v, e))
            else:
                image = zs.delta.delta_class(zs.compositions.DualityClass.of(a))
                v, e = mpmath.mpf(0), mpmath.mpf(0)
                for b, c in image.items():
                    bv, be = sigma_ref(b, n, d)
                    v += c * bv
                    e += abs(c) * be
                refs.append(("contraction", v, e))
            cf = checks.closed_form(op["kind"], a, n, d)
            if cf is not None:
                refs.append(("closed form", cf, mpmath.mpf(10) ** -(d + 25)))
            ops.reject(op, checks.enclosure_problems(val.value, val.abs_error, d, refs))
    groups: dict = {}
    for op in ops.items:
        if op["group"]:
            groups.setdefault(op["group"], []).append(op)
    for name, members in groups.items():
        if any(o["out"] is None for o in members):
            continue
        weight, d = sum(members[0]["a"]), members[0]["d"]
        with mpmath.workdps(d + 40):
            total = sum((o["out"].value for o in members), mpmath.mpf(0))
            radius = sum((o["out"].abs_error for o in members), mpmath.mpf(0))
            ref = mpmath.zeta(weight)
            if abs(total - ref) > radius + mpmath.mpf(10) ** -(d + 25):
                for o in members:
                    ops.reject(o, [f"sum theorem fails for {name}"])
    out = {
        "ops": ops.report(),
        "end": end,
        "rss_mb": end["rss_mb"],
        "timed_s": sum(o["s"] for o in ops.items),
        "round": ops.round_time(),
    }
    if tracer:
        out["layer"] = {}
        for d in TAIL_DIGITS:
            spans = [o["span"] for o in ops.items if o["d"] == d]
            out["layer"].update(_tail_layer(tracer, spans, f"d{d}"))
    return out


def _tail_layer(tracer, spans, level) -> dict:
    out = {f"numerics.sigma_tail_s.{level}": 0.0, f"numerics.zeta_sym_tail_s.{level}": 0.0}
    for lo, hi in spans:
        s = tracer.summary(lo, hi)
        for fn in ("sigma_tail", "zeta_sym_tail"):
            out[f"numerics.{fn}_s.{level}"] += s.get(f"numerics.{fn}", {"self": 0.0})["self"]
    return out


# ---------------------------------------------------------------------------
# verify


def verify(zs, part: str, tracer) -> dict:
    cli = zs.cli
    ops = Ops(tracer)
    begin_timed(zs, tracer)
    for name in sorted(cli.IDENTITIES):
        argv = ["verify", "--identity", name, "--format", "json"] + VERIFY_PARTS[part]

        def call(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        ops.run("identity", call, name=name, k=name)
    end = end_timed(zs, tracer)

    # --- checks
    digits = int(VERIFY_PARTS[part][1])
    for op in ops.items:
        if op["out"] is None:
            continue
        code, text = op["out"]
        ops.reject(op, _verify_problems(op["name"], digits, code, text))
    out = {
        "ops": ops.report(),
        "end": end,
        "rss_mb": end["rss_mb"],
        "timed_s": sum(o["s"] for o in ops.items),
        "round": ops.round_time(),
    }
    if tracer:
        out["layer"] = _tail_layer(tracer, [o["span"] for o in ops.items], part)
        out["layer"][f"cli.self_s.{part}"] = tracer.summary().get("cli.main", {"self": 0.0})["self"]
        for o in ops.items:
            out["layer"][f"cli.verify_s.{o['name']}.{part}"] = o["s"]
    return out


def _verify_problems(name, digits, code, text) -> list[str]:
    try:
        payload = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    if payload.get("identity") != name or payload.get("digits") != digits:
        return ["output names another identity or precision"]
    found = payload.get("checks") or []
    if not found:
        return ["no checks reported"]
    problems = []
    with mpmath.workdps(30):
        for c in found:
            if c.get("kind") == "numeric":
                res, tol = mpmath.mpf(c["residual"]), mpmath.mpf(c["tolerance"])
                if tol > mpmath.mpf(10) ** -digits * 1.01:
                    problems.append(f'{c["name"]}: tolerance {c["tolerance"]} is looser than 1e-{digits}')
                elif not res <= tol:
                    problems.append(f'{c["name"]}: residual {c["residual"]} > tolerance {c["tolerance"]}')
            elif c.get("passed") is not True:
                problems.append(f'{c["name"]}: exact check failed')
    if code != 0:
        problems.append(f"exit code {code}")
    return problems


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("kernels", "delta", "tails", "verify"))
    ap.add_argument("--part", default="main")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the spans to (with --trace 1)")
    args = ap.parse_args()

    zs = import_program()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.workload == "verify":
        out = verify(zs, args.part, tracer)
    else:
        out = {"kernels": kernels, "delta": delta, "tails": tails}[args.workload](zs, args.seed, tracer)
    end = out.pop("end")
    if tracer:
        layer = out.setdefault("layer", {})
        layer["delta.memo_entries"] = end["memo_entries"]
        layer.setdefault("delta.image_terms", end["memo_terms"])
        out["summary"] = tracer.summary()
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
