"""Spans recorded from outside the program, around calls into its layers.

:func:`install` replaces each named public function by a wrapper that
records one span (name, start, end, parent) per call.  The wrapper goes in
at the function's own module and at every ``zetasigma`` module that
imported the same object by name, so calls between modules (``delta`` into
``lincomb.alpha``, ``cli`` into ``exact_linalg.kernel_of_delta``) and
recursive calls through a module global are all seen.  Spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

#: layer -> public functions whose calls are spans.  ``cli`` lists the
#: library calls the identity registry makes, so that ``cli.main`` self time
#: is the CLI's own work.
TRACED = {
    "compositions": ("enumerate_compositions",),
    "lincomb": ("alpha", "mu_invert"),
    "stuffle": ("boxast",),
    "delta": ("delta_class", "delta_explicit"),
    "exact_linalg": (
        "delta_matrix",
        "alpha_matrix",
        "certified_kernel",
        "kernel_of_delta",
        "kernel_of_alpha",
        "preimage_lattice",
        "lattices_equal",
    ),
    "numerics": (
        "sigma_tail",
        "zeta_sym_tail",
        "pi",
        "sqrt3",
        "zeta_int",
        "L_chi3",
        "ConstantBasisVector.evaluate",
        "residual_upper",
        "th7_coeffs",
        "th8_coeffs",
        "zagier_coeffs",
        "bbb_coefficient",
    ),
    "cli": ("main",),
}

class Tracer:
    """In-memory span store.  A span is (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.on = False

    def start(self) -> None:
        """Record from here: calls made while inputs are built are not spans."""
        self.on = True

    def stop(self) -> None:
        """Record nothing more: calls made while checking are not spans."""
        self.on = False

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        for attr in ("cache_clear", "cache_info"):  # keep lru_cache controls
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        return len(self.spans)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-name total time, self time and call count over spans[lo:hi].
        Self time is a span's duration minus the time its children cover."""
        hi = len(self.spans) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            _, s, e, parent = self.spans[i]
            if parent >= lo:
                child[parent - lo] += e - s
        out: dict[str, list] = {}
        for i in range(lo, hi):
            name, s, e, _ = self.spans[i]
            row = out.setdefault(name, [0.0, 0.0, 0])
            row[0] += e - s
            row[1] += e - s - child[i - lo]
            row[2] += 1
        return {k: {"total": v[0], "self": v[1], "calls": v[2]} for k, v in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, s, e, parent in self.spans:
                fh.write(f"{name}\t{s:.9f}\t{e:.9f}\t{parent}\n")


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`TRACED` wherever ``zetasigma`` bound it."""
    mods = [m for n, m in sys.modules.items() if n == "zetasigma" or n.startswith("zetasigma.")]
    for layer, names in TRACED.items():
        home = sys.modules[f"zetasigma.{layer}"]
        for name in names:
            label = f"{layer}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, tracer.wrap(label, getattr(cls, meth)))
                continue
            orig = getattr(home, name)
            traced = tracer.wrap(label, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, traced)
