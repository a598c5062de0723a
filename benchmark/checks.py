"""Output checks for the benchmark's jobs.

Each reference is computed here, before timing starts, from closed forms
that do not go through the code being timed: discrete spectra from the
eigenvalue formula summed with ``math.fsum``, lattice sums by ``fsum`` over
|k|^-2s, pinned zero heights, and identities between the outputs of
different jobs of one pass (``coeff a`` against ``expansion``'s leading
coefficient, ``coeff angular`` against ``coeff b1``).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# critical-line zeros on t in [1, 20], pinned by an arbitrary-precision
# oracle (acceptance criterion 11)
GOLDEN_ZEROS = {"beta": (6.02094890469759665, 10.2437703041666,
                         12.9880980123124, 16.3426071045872, 18.2919931961235),
                "riemann": (14.1347251417346938,)}
ZERO_TOL = 5e-9
# |zeta(Delta, 1/2+it)| at a reported zero: 1e-8 on t <= 20 (criterion 11).
# Bisection stops at 1e-9 in t, which leaves |d zeta(Delta)/dt| * 5e-10, and
# the derivative grows with t: residuals reach 1.2e-8 on [1, 100], while a
# point that is no zero has a residual of order one.
RESIDUAL_TOL = {20.0: 1e-8, 100.0: 1e-7}
XI_DEFECT_TOL = 1e-9        # acceptance criterion 5
UNIT_MODULUS_TOL = 1e-10    # acceptance criterion 6
SLOPE_MAX = -3.5            # acceptance criterion 3
# |computed - fsum reference| <= SUM_TOL * sum |terms|; the library stays
# below 3e-15 here, and a 1e-9 relative change in any output exceeds it
SUM_TOL = 1e-13
IDENTITY_TOL = 1e-13


def parse_rows(stdout: str) -> list[dict]:
    """CSV records of one job, with ``value``, ``err`` and ``meta`` parsed."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    for row in rows:
        row["value"] = complex(float(row["value_re"]), float(row["value_im"]))
        row["err"] = float(row["err_est"]) if row["err_est"] else None
        row["meta"] = dict(kv.split("=", 1)
                           for kv in row["meta"].split(";") if kv)
    return rows


def _fsum_powers(values: np.ndarray, s: complex) -> tuple[complex, float]:
    """(sum values^-s, sum |values^-s|) with exactly rounded real sums."""
    terms = np.exp(-s * np.log(values))
    return (complex(math.fsum(terms.real), math.fsum(terms.imag)),
            math.fsum(np.abs(terms)))


def _axis(n: int) -> np.ndarray:
    # sin(pi k/n) = sin(pi (n-k)/n); the smaller angle keeps full relative
    # accuracy for k near n, where the terms of the 1-D sum are largest
    k = np.arange(n)
    return (n / math.pi) ** 2 * np.sin(math.pi * np.minimum(k, n - k) / n) ** 2


def torus_spectrum(n: int, variant: str) -> np.ndarray:
    """Nonzero eigenvalues of the normalized 5- or 9-point torus Laplacian."""
    e = _axis(n)
    lam = e[:, None] + e[None, :]
    if variant == "nine":
        lam = lam - 2.0 * math.pi ** 2 / (3.0 * n * n) * np.outer(e, e)
    return lam.ravel()[1:]


def reference(job):
    """Precomputed reference for ``job`` (None when its check needs none)."""
    p = job.params
    cmd = job.argv[0]
    if cmd == "zeta":
        return _fsum_powers(torus_spectrum(p["n"], p["variant"]), p["s"])
    if cmd == "zeta1d":
        return _fsum_powers(_axis(p["n"])[1:], p["s"])
    if cmd == "epstein":
        k = np.arange(-p["cutoff"], p["cutoff"] + 1)
        q = (k[:, None] ** 2 + k[None, :] ** 2).astype(float).ravel()
        return _fsum_powers(q[q > 0], p["s"])
    return None


def _near(value: complex, ref: complex, scale: float, tol: float) -> bool:
    return abs(value - ref) <= tol * scale


def _one(rows, quantity):
    found = [r for r in rows if r["quantity"] == quantity]
    if len(found) != 1:
        raise LookupError(f"expected one {quantity} row, got {len(found)}")
    return found[0]


def _check_sum(rows, ref, quantity):
    row = _one(rows, quantity)
    value, mag = ref
    if not _near(row["value"], value, mag, SUM_TOL):
        return [f"{quantity} {row['value']!r} != fsum reference {value!r}"]
    return []


def _check_epstein(rows, ref):
    problems = _check_sum(rows, ref, "epstein_direct")
    glasser = _one(rows, "epstein")["value"]
    direct = _one(rows, "epstein_direct")
    # the direct sum misses only the tail it bounds
    if abs(glasser - direct["value"]) > direct["err"] * (1 + 1e-6):
        problems.append(f"epstein {glasser!r} and direct sum differ by more "
                        f"than the tail bound {direct['err']!r}")
    return problems


def _check_zeros(job, rows):
    problems = []
    lo, hi = job.params["t_min"], job.params["t_max"]
    found = {"beta": [], "riemann": []}
    for row in rows:
        t = row["value"].real
        tol = next((v for top, v in RESIDUAL_TOL.items() if t <= top), 0.0)
        if row["err"] is None or row["err"] >= tol:
            problems.append(f"zero t={t!r} has residual {row['err']!r}")
        found[row["meta"]["source"]].append(t)
    for source, goldens in GOLDEN_ZEROS.items():
        for t in found[source]:
            if t <= 20.0 and min(abs(t - g) for g in goldens) > ZERO_TOL:
                problems.append(f"{source} zero {t!r} matches no golden")
        for g in goldens:
            # a zero within one scan step of an end may fall outside
            if lo + 0.05 < g < hi - 0.05 and \
                    not any(abs(t - g) <= ZERO_TOL for t in found[source]):
                problems.append(f"{source} zero {g} not found")
    if not rows:
        problems.append("no zeros found")
    return problems


def _check_omega_scan(job, rows):
    problems = []
    if len(rows) < 3:
        problems.append("omega scan returned too few rows")
    if any(r["meta"].get("monotone_scan") != "true" for r in rows):
        problems.append(f"omega scan at b={job.params['b']} not monotone")
    mods = [abs(r["value"]) for r in rows]
    if any(b <= a for a, b in zip(mods, mods[1:])):
        problems.append("omega scan values not increasing")
    mid = min(rows, key=lambda r: abs(float(r["s_re"]) - 0.5))
    if abs(float(mid["s_re"]) - 0.5) < 1e-12 and \
            abs(abs(mid["value"]) - 1.0) > UNIT_MODULUS_TOL:
        problems.append(f"|Omega ratio| at Re s = 1/2 is {abs(mid['value'])!r}")
    return problems


def _check_hn(rows):
    ratios = [(int(r["n"]), abs(r["value"] - 1.0))
              for r in rows if r["quantity"] == "hn_ratio"]
    ns = [n for n, _ in ratios]
    dev = [d for _, d in ratios]
    problems = []
    if len(ratios) < 3 or ns != sorted(ns):
        problems.append(f"hn rows for n={ns}")
    if any(b >= a for a, b in zip(dev, dev[1:])):
        problems.append(f"|ratio - 1| not decreasing along n: {dev}")
    return problems


def _check_expansion(rows):
    slope = _one(rows, "expansion_slope")["value"].real
    if slope > SLOPE_MAX:
        return [f"expansion slope {slope!r} > {SLOPE_MAX}"]
    return []


def _leading(rows) -> str:
    return _one(rows, "expansion_b0")["meta"]["leading"]


def _check_coeff(job, rows, outputs):
    """Identities between ``coeff`` jobs and the pass's expansion jobs."""
    which = job.argv[1]
    s = job.params["s"]
    if which == "a":
        expansion = outputs[f"expansion_{job.params['variant']}"]
        row = _one(rows, "coeff_a")
        got = f"{row['value_re']}+{row['value_im']}i"
        if got != _leading(expansion):
            return [f"coeff a {got} != expansion leading {_leading(expansion)}"]
        return []
    if which == "b1":
        b1 = _one(rows, "coeff_b1")["value"]
        expected = _one(outputs["expansion_five"], "expansion_b1")["value"]
        if b1 != expected:
            return [f"coeff b1 {b1!r} != 5-point expansion b1 {expected!r}"]
        return []
    # angular: b1 = b1~ - 4 pi^2/(2 - s) A(s), b1~ from the 9-point expansion
    angular = _one(rows, "angular_sum")["value"]
    b1_tilde = _one(outputs["expansion_nine"], "expansion_b1")["value"]
    b1 = _one(outputs["coeff_b1"], "coeff_b1")["value"]
    term = 4.0 * math.pi ** 2 / (2.0 - s) * angular
    if not _near(b1, b1_tilde - term, abs(b1_tilde) + abs(term), IDENTITY_TOL):
        return [f"coeff b1 {b1!r} != b1~ - 4 pi^2/(2-s) A = {b1_tilde - term!r}"]
    return []


def check(job, code: int, ref, outputs: dict) -> list[str]:
    """Problems with one job's output; empty when it is correct.

    ``outputs`` maps each job label of the same pass to its parsed rows,
    for the checks that relate jobs to each other.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        rows = outputs[job.label]
        for row in rows:
            nums = [row["value"].real, row["value"].imag]
            if row["err"] is not None:
                nums.append(row["err"])
            if not all(math.isfinite(x) for x in nums):
                return [f"non-finite value in {row['quantity']} row"]
        cmd = job.argv[0]
        if cmd == "zeta":
            return _check_sum(rows, ref, "zeta_discrete")
        if cmd == "zeta1d":
            return _check_sum(rows, ref, "zeta_circle")
        if cmd == "epstein":
            return _check_epstein(rows, ref)
        if cmd == "hn":
            return _check_hn(rows)
        if cmd == "expansion":
            return _check_expansion(rows)
        if cmd == "coeff":
            return _check_coeff(job, rows, outputs)
        if cmd == "xi":
            defect = float(_one(rows, "xi")["meta"]["fe_defect"])
            return [] if defect <= XI_DEFECT_TOL else [f"xi defect {defect!r}"]
        if cmd == "omega":
            value = _one(rows, "omega_ratio")["value"]
            if abs(abs(value) - 1.0) > UNIT_MODULUS_TOL:
                return [f"|Omega ratio| on Re s = 1/2 is {abs(value)!r}"]
            return []
        kind = job.argv[2]
        if kind == "zeros":
            return _check_zeros(job, rows)
        if kind == "omega":
            return _check_omega_scan(job, rows)
        if kind == "xi-defect":
            bad = [r for r in rows if r["value"].real > XI_DEFECT_TOL]
            if not rows or bad:
                return [f"{len(bad)} of {len(rows)} xi defects > {XI_DEFECT_TOL}"]
            return []
        return [f"no check for {' '.join(job.argv)}"]
    except (LookupError, ValueError) as exc:
        return [f"malformed output: {exc}"]
