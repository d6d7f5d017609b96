"""The zetasigma benchmark: one command, four workloads.

    python3 perfbench/run.py --workload kernels|delta|tails|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``.
Each round of a workload runs in fresh interpreters (``worker.py``), from
cold caches, and attempts the same operations; a run makes as many rounds
as ``--seconds`` holds at the workload's nominal round time.  ``round_s`` sums, over the operations (or
chunks of them) of a round, each one's minimum over the samples of the run;
see :func:`fastest`.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``setup_s``, the median time a fresh interpreter
takes to import the package, and ``round_s``, the time of one round of the
workload.  With ``--trace 1`` rounds alternate between untraced and traced;
the metrics are the per-layer numbers of the traced rounds, the peak memory
of the untraced ones and the tracing overhead between the two, and the
spans of the last traced round are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SAMPLES = 11
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0

#: the worker invocations of one round, each a fresh interpreter.  The
#: registry runs twice at 40 digits and twice at 150, interleaved, so that
#: the samples of an identity are spread over the whole round.
PARTS = {
    "kernels": ("main",),
    "delta": ("main",),
    "tails": ("main",),
    "verify": ("d40", "d150", "d40", "d150"),
}

#: wall time of one round on the reference machine, interpreter start and
#: checks included: --seconds / this is the number of rounds a run makes
NOMINAL_ROUND_S = {"kernels": 1.75, "delta": 7.0, "tails": 7.0, "verify": 28.0}
END_TO_END = {"setup_s": "s", "round_s": "s"}

IDENTITIES = (
    "all-twos", "bbb", "bbb-coeffs", "eu87", "eu88", "euler", "leshchiner", "t1-spotcheck",
    "th17", "th18", "th7", "th8", "weight4", "zagier", "zeta3", "zucker",
)  # fmt: skip


def per_layer_units() -> dict:
    units = {
        "compositions.enumerate_s": "s",
        "lincomb.alpha_s": "s",
        "lincomb.mu_invert_s": "s",
        "stuffle.boxast_s": "s",
        "stuffle.boxast_calls": "count",
        "delta.delta_class_s": "s",
        "delta.delta_explicit_s": "s",
        "delta.image_terms": "count",
        "delta.memo_entries": "count",
        "exact_linalg.matrix_build_s": "s",
    }
    units.update({f"exact_linalg.rank_only_s.w{k}": "s" for k in range(14)})
    units.update({f"exact_linalg.basis_s.w{k}": "s" for k in range(13)})
    units.update(
        {
            "exact_linalg.saturation_gap_s": "s",
            "exact_linalg.primes_used": "count",
            "exact_linalg.basis_max_bits": "bits",
            "exact_linalg.preimage_s": "s",
        }
    )
    for fn in ("sigma_tail", "zeta_sym_tail"):
        units.update({f"numerics.{fn}_s.{lv}": "s" for lv in ("d32", "d100", "d200", "d40", "d150")})
    units.update({"numerics.tail_calls": "count", "numerics.constants_s": "s"})
    units.update({f"cli.self_s.{lv}": "s" for lv in ("d40", "d150")})
    units.update({f"cli.verify_s.{i}.{lv}": "s" for i in IDENTITIES for lv in ("d40", "d150")})
    units.update({"process.peak_rss_mb": "MB", "trace.overhead_pct": "%", "trace.spans": "count"})
    return units


CONSTANTS = ("pi", "sqrt3", "zeta_int", "L_chi3", "ConstantBasisVector.evaluate")


def layer_metrics(summary: dict, extra: dict) -> dict:
    """Per-layer numbers of one traced round from its span summary."""

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {name: 0 for name in per_layer_units()}
    out.update(
        {
            "compositions.enumerate_s": get("compositions.enumerate_compositions", "self"),
            "lincomb.alpha_s": get("lincomb.alpha", "self"),
            "lincomb.mu_invert_s": get("lincomb.mu_invert", "self"),
            "stuffle.boxast_s": get("stuffle.boxast", "self"),
            "stuffle.boxast_calls": get("stuffle.boxast", "calls"),
            "delta.delta_class_s": get("delta.delta_class", "self"),
            "delta.delta_explicit_s": get("delta.delta_explicit", "self"),
            "exact_linalg.matrix_build_s": get("exact_linalg.delta_matrix", "total")
            + get("exact_linalg.alpha_matrix", "total"),
            # lattices_equal runs only on a preimage that preimage_lattice
            # returned, as the second half of the same comparison
            "exact_linalg.preimage_s": get("exact_linalg.preimage_lattice", "total")
            + get("exact_linalg.lattices_equal", "total"),
            "numerics.tail_calls": get("numerics.sigma_tail", "calls")
            + get("numerics.zeta_sym_tail", "calls"),
            "numerics.constants_s": sum(get(f"numerics.{c}", "self") for c in CONSTANTS),
        }
    )
    out.update(extra)
    return out


def merge_summaries(parts) -> dict:
    out: dict = {}
    for part in parts:
        for name, row in part["summary"].items():
            acc = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            for field in acc:
                acc[field] += row[field]
    return out


def fastest(samples: list) -> float:
    """The time of one part of a round from its samples in a run: each
    piece's time is its minimum over the samples, and the part's time is
    their sum plus the charge for failures.  The host's slow spells only
    ever add time, and most of them last a second or less, so the per-piece
    minimum is what stays steadiest from run to run."""
    return sum(map(min, zip(*(g["s"] for g in samples)))) + max(g["charge"] for g in samples)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(PARTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "zetasigma", "__init__.py")):
        return fail(f"no program to measure: {ROOT}/src/zetasigma is missing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one single-threaded process carries all the load
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    def child(argv) -> str:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=max(remaining(), 1.0),
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[:3]} exited with {proc.returncode}")
        return proc.stdout.strip().splitlines()[-1]

    out_dir = os.path.join(ROOT, ".perfbench_out")

    def run_round(traced: bool) -> list:
        parts = []
        # a traced round runs each distinct part once
        for part in dict.fromkeys(PARTS[args.workload]) if traced else PARTS[args.workload]:
            argv = [
                os.path.join(HERE, "worker.py"),
                "--workload", args.workload,
                "--part", part,
                "--seed", str(args.seed),
                "--trace", str(int(traced)),
            ]  # fmt: skip
            if traced:
                os.makedirs(out_dir, exist_ok=True)
                argv += ["--spans", os.path.join(out_dir, f"{args.workload}-{part}.tsv")]
            parts.append(dict(json.loads(child(argv)), part=part))
        return parts

    try:
        setup = []
        if not args.trace:
            code = (
                "import time; t = time.perf_counter(); import zetasigma, zetasigma.cli; "
                "print(time.perf_counter() - t)"
            )
            setup = [float(child(["-c", code])) for _ in range(SETUP_SAMPLES)]
        # Whole rounds only, as many as --seconds holds at the workload's
        # nominal round time, so that every run takes the same number of
        # samples behind each minimum whatever the host's speed (a faster
        # host must not also get more tries at its floor).  Only a slow host
        # ends a run early: another round starts only while half of it
        # still fits in --seconds.
        planned = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        if args.trace:
            planned = max(1, planned // 2)  # an untraced and a traced round each
        t0 = time.perf_counter()
        rounds: list[tuple[bool, list]] = []
        for n in range(1, planned + 1):
            rounds.append((False, run_round(False)))
            if args.trace:
                rounds.append((True, run_round(True)))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / n / 2 > args.seconds:
                break
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        return fail(f"run aborted: {exc}")

    attempted = sum(p["ops"]["attempted"] for _, parts in rounds for p in parts)
    failed = sum(p["ops"]["failed"] for _, parts in rounds for p in parts)
    rejected = sum(p["ops"]["rejected"] for _, parts in rounds for p in parts)
    for note in sorted({n for _, parts in rounds for p in parts for n in p["ops"]["notes"]}):
        print(f"perfbench: failed operation: {note}", file=sys.stderr)

    metrics = {}
    # peak memory of a round: its largest part, from untraced rounds only
    rss = [max(p["rss_mb"] for p in parts) for traced, parts in rounds if not traced]
    if not args.trace:
        samples: dict = {}
        for _, parts in rounds:
            for p in parts:
                samples.setdefault(p["part"], []).append(p["round"])
        metrics["setup_s"] = statistics.median(setup)
        metrics["round_s"] = sum(fastest(s) for s in samples.values())
        units = END_TO_END
    else:
        part_s: dict = {}
        layers = []
        for traced, parts in rounds:
            for p in parts:
                part_s.setdefault((traced, p["part"]), []).append(p["timed_s"])
            if traced:
                extra = {}
                for p in parts:
                    extra.update(p.get("layer", {}))
                extra["trace.spans"] = sum(p["spans"] for p in parts)
                layers.append(layer_metrics(merge_summaries(parts), extra))
        units = per_layer_units()
        for name in units:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        plain, traced = (
            sum(statistics.median(part_s[(t, part)]) for part in dict.fromkeys(PARTS[args.workload]))
            for t in (False, True)
        )
        metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        metrics["process.peak_rss_mb"] = statistics.median(rss)
    result = {
        "correct": rejected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
