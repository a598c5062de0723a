"""Spans around the calls into each toruszeta layer, recorded from outside.

The child process (``child.py``) installs a :class:`Tracer` after importing
the package.  The tracer replaces each traced public function at every
``toruszeta.*`` module binding that holds it (``from .x import f`` makes a
copy per importing module), so calls are seen whichever module makes them.
Every call becomes one span ``[function id, start, end, parent index, work]``
kept in memory and written out when the job ends; :func:`layer_stats`
derives call counts, inclusive seconds and self seconds from those spans.

The CLI paths traced here run on one thread (the benchmark never passes
``--threads``), so a single stack of open spans gives each span its parent.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs wrapped in a traced run.  ``pairwise_sum`` is
# wrapped only where other modules hold it, never in ``summation`` itself,
# so its recursion is not counted: each span is one top-level reduction.
TRACED = (
    ("lattice", "spectral_zeta"),
    ("lattice", "eigenvalue_grid"),
    ("lattice", "spectral_zeta_1d"),
    ("summation", "pairwise_sum"),
    ("expansion", "angular_lattice_sum"),
    ("expansion", "coeff_b1"),
    ("expansion", "leading_coeff"),
    ("expansion", "h_function"),
    ("expansion", "residual_order"),
    ("epstein", "find_critical_zeros"),
    ("epstein", "hardy_z_riemann"),
    ("epstein", "hardy_z_beta"),
    ("epstein", "epstein_zeta_2d"),
    ("epstein", "complete_xi"),
    ("epstein", "epstein_direct_sum"),
    ("special", "riemann_zeta"),
    ("special", "dirichlet_beta"),
    ("special", "complex_gamma"),
    ("special", "complex_log_gamma"),
    ("conjecture", "omega_ratio"),
    ("conjecture", "hn_ratio_study"),
)
CONSUMER_ONLY = {"pairwise_sum"}
MAIN = "cli.main"
NAMES = [MAIN] + [f"{mod}.{fn}" for mod, fn in TRACED]


def _work_pairwise(args, kwargs):
    values = args[0] if args else kwargs["values"]
    return int(getattr(values, "size", None) or len(values))


def _work_spectral(args, kwargs):
    grid = args[0] if args else kwargs["grid"]
    return grid.n * grid.n - 1


# Work counted per call, besides the span itself: elements reduced and
# eigenvalues summed.
WORK = {"summation.pairwise_sum": _work_pairwise,
        "lattice.spectral_zeta": _work_spectral}


class Tracer:
    """Collects one span per call of every traced function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, fid: int, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            amount = work(args, kwargs) if work else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = [fid, start, clock(), parent, amount]
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function at each toruszeta binding holding it.

        A function the package no longer defines is reported in
        ``missing`` (and on stderr) and gets no spans; it never raises.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "toruszeta"
                                         or name.startswith("toruszeta."))]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"toruszeta.{mod_name}")
            original = getattr(home, fn_name, None) if home else None
            if not callable(original):
                self.missing.append(name)
                print(f"warning: traced function {name} not found; "
                      "reporting zero calls", file=sys.stderr)
                continue
            wrapped = self._wrap(NAMES.index(name), original, WORK.get(name))
            for mod in modules:
                if fn_name in CONSUMER_ONLY and mod is home:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def call_main(self, main, argv):
        """Run ``main(argv)`` inside the root span."""
        return self._wrap(NAMES.index(MAIN), main)(argv)


def layer_stats(spans) -> dict:
    """Per-function ``calls``, inclusive ``s``, ``self_s`` and ``work``.

    ``s`` adds up only the outermost span of each function, so recursion
    through a traced binding is not counted twice; ``self_s`` is each
    span's duration minus the time of its direct child spans.
    """
    child_time = [0.0] * len(spans)
    for fid, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
             for name in NAMES}
    for i, (fid, start, end, parent, work) in enumerate(spans):
        row = stats[NAMES[fid]]
        row["calls"] += 1
        row["work"] += work
        row["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != fid:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return stats
