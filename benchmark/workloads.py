"""The benchmark's workloads: seeded lists of toruszeta CLI jobs.

The seed moves only s values and scan windows; sizes (n, point counts,
window lengths) are fixed, so the work in a pass barely depends on the
seed.  Every draw stays inside the library's validated domain
(|Im s| <= 100) and inside the region where the output checks of
``checks.py`` hold:

* the n <= 256 expansion is pre-asymptotic for Im s >~ 6 (slope above
  -3.5), and near Re s = 0.15..0.4, Im s <= 1 its residuals hit the noise
  floor (exit 3), so expansion s is drawn from Re in [0.6, 0.8],
  Im in [0.5, 3.5], where the slope is at most -3.8;
* H_n studies keep Re s away from 1/2 so they never trigger a zero scan;
* the Borwein series length grows with Im s, so each critical-line scan
  comes with its mirror image about the middle of its range and the pair
  costs the same whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WHY = {
    "spectrum_oneshot": "each 2-torus spectrum is built and reduced once: "
                        "spectral engine and reducer alone, a spectrum cache "
                        "cannot win",
    "bridge": "expansion, H_n and coefficient jobs that reuse spectra, the "
              "leading-coefficient memo and the angular lattice sum",
    "critical_line": "zero, Omega and xi scans: pure zeta/beta/Gamma "
                     "traffic that bypasses every spectral layer",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its checker needs to know."""

    label: str
    argv: tuple
    params: dict = field(default_factory=dict, compare=False)


def fmt_s(s: complex) -> str:
    """CLI spelling of s, e.g. ``0.312500+2.250000i``."""
    return f"{s.real:.6f}{s.imag:+.6f}i"


def _draw_s(rng: random.Random, re_range, im_range) -> complex:
    # six decimals: the CLI parses exactly the value the checker uses
    return complex(round(rng.uniform(*re_range), 6),
                   round(rng.uniform(*im_range), 6))


def spectrum_oneshot(rng, smoke: bool) -> list[Job]:
    small, large = (32, 64) if smoke else (1024, 2048)
    jobs = []
    for n in (small, large):
        for variant in ("five", "nine"):
            s = _draw_s(rng, (0.2, 0.8), (0.5, 8.0))
            jobs.append(Job(f"zeta_{n}_{variant}",
                            ("zeta", "--n", str(n), "--variant", variant,
                             "--s", fmt_s(s)),
                            {"n": n, "variant": variant, "s": s}))
    n1 = 128 if smoke else 4096
    s = _draw_s(rng, (0.2, 0.8), (0.5, 8.0))
    jobs.append(Job("zeta1d", ("zeta1d", "--n", str(n1), "--s", fmt_s(s)),
                    {"n": n1, "s": s}))
    cutoff = 20 if smoke else 400
    s = _draw_s(rng, (1.8, 2.5), (0.0, 3.0))
    jobs.append(Job("epstein", ("epstein", "--s", fmt_s(s),
                                "--direct-cutoff", str(cutoff)),
                    {"cutoff": cutoff, "s": s}))
    return jobs


def bridge(rng, smoke: bool) -> list[Job]:
    n_list = (16, 32, 64) if smoke else (64, 128, 256, 512, 1024)
    s_h = _draw_s(rng, (0.2, 0.4), (0.5, 4.0))
    s = _draw_s(rng, (0.6, 0.8), (0.5, 3.5))
    arg = fmt_s(s)
    jobs = [Job("hn", ("hn", "--s", fmt_s(s_h), "--n-list",
                       ",".join(map(str, n_list))), {"s": s_h})]
    for variant in ("five", "nine"):
        jobs.append(Job(f"expansion_{variant}",
                        ("expansion", "--s", arg, "--variant", variant),
                        {"s": s, "variant": variant}))
    for variant in ("five", "nine"):
        jobs.append(Job(f"coeff_a_{variant}",
                        ("coeff", "a", "--s", arg, "--variant", variant),
                        {"s": s, "variant": variant}))
    jobs.append(Job("coeff_angular", ("coeff", "angular", "--s", arg),
                    {"s": s}))
    jobs.append(Job("coeff_b1", ("coeff", "b1", "--s", arg), {"s": s}))
    return jobs


def critical_line(rng, smoke: bool) -> list[Job]:
    length, points, grid = (5.0, 21, (3, 5)) if smoke else (45.0, 2999, (25, 241))
    t0 = round(rng.uniform(1.0, 10.0), 6)
    jobs = []
    for i, (lo, hi) in enumerate(((t0, t0 + length),
                                  (101.0 - t0 - length, 101.0 - t0))):
        jobs.append(Job(f"zeros_{i}",
                        ("scan", "--kind", "zeros", "--t-min", f"{lo:.6f}",
                         "--t-max", f"{hi:.6f}"), {"t_min": lo, "t_max": hi}))
    b = round(rng.uniform(66.0, 82.0), 6)
    for i, bb in enumerate((b, 166.0 - b)):
        jobs.append(Job(f"omega_scan_{i}",
                        ("scan", "--kind", "omega", "--b", f"{bb:.6f}",
                         "--a-min", "0.01", "--a-max", "0.99",
                         "--points", str(points)), {"b": bb}))
    # a grid symmetric in Im s, shifted by under one cell: the heaviest job,
    # at a cost that does not depend on the seed
    shift = round(rng.uniform(-0.4, 0.4), 6)
    jobs.append(Job("xi_defect",
                    ("scan", "--kind", "xi-defect", "--re-min", "0.05",
                     "--re-max", "0.95", "--re-points", str(grid[0]),
                     "--im-min", f"{shift - 99.5:.6f}",
                     "--im-max", f"{shift + 99.5:.6f}",
                     "--im-points", str(grid[1])), {}))
    s = _draw_s(rng, (0.05, 0.95), (-100.0, 100.0))
    jobs.append(Job("xi", ("xi", "--s", fmt_s(s)), {"s": s}))
    s = complex(0.5, round(rng.uniform(1.0, 100.0), 6))
    jobs.append(Job("omega_ratio", ("omega", "--s", fmt_s(s), "--ratio"),
                    {"s": s}))
    return jobs


BUILDERS = {"spectrum_oneshot": spectrum_oneshot, "bridge": bridge,
            "critical_line": critical_line}


def build(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The workload's job list for ``seed``; same seed, same jobs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), smoke)
