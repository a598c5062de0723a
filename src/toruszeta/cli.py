"""Command-line front end.

Every computation is exposed as a subcommand that emits machine-readable
records, either CSV (fixed column order
``quantity,s_re,s_im,n,value_re,value_im,err_est,meta``) or JSON (an array
of objects with the same keys).  Numbers are serialized with 17 significant
digits, so re-parsing reproduces the binary values exactly and identical
configurations produce byte-identical output files; timing goes to stderr
only.  A scan writes its rows as columnar records: each is formatted with
one %-template, its text cells escaped once, and checked for inf and nan
one column at a time.

Exit codes: 0 ok, 2 domain/usage errors, 3 convergence errors or a
non-finite result, 4 internal.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import conjecture, epstein, expansion, lattice, special
from .conjecture import ScanRecord
from .errors import (ConvergenceError, DegenerateError, DescriptorError,
                     DomainError, IllConditionedError, NonFiniteError,
                     PoleError, RangeError, ShapeError, SignalLostError,
                     ZeroDenominatorError)

_USAGE_ERRORS = (DomainError, RangeError, DegenerateError, PoleError,
                 ZeroDenominatorError, DescriptorError, ShapeError, ValueError)
_CONVERGENCE_ERRORS = (ConvergenceError, SignalLostError, IllConditionedError,
                       NonFiniteError)

_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$")


def parse_complex(text: str) -> complex:
    """Strict complex grammar: ``float`` or ``float{+|-}floati``, no spaces."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ValueError(
            f"cannot parse complex number {text!r} (expected e.g. 0.3+2.0i)")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) else 0.0
    return complex(re_part, im_part)


def _parse_int_list(text: str) -> list[int]:
    try:
        vals = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc
    if not vals:
        raise ValueError("empty integer list")
    return vals


@dataclass
class RunConfig:
    quad_tol: float = 1e-12
    fmt: str = "csv"
    out: str | None = None
    strict: bool = False

    def __post_init__(self):
        if not 0.0 < self.quad_tol <= 1e-3:
            raise DomainError(f"quad_tol={self.quad_tol} outside (0, 1e-3]")
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"format {self.fmt!r} not in {{csv,json}}")


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key=value): {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


_COLUMNS = ("quantity", "s_re", "s_im", "n", "value_re", "value_im",
            "err_est", "meta")


def _g17(x: float) -> str:
    """17 significant digits, the format of every number cell; the gate
    that keeps inf and nan out of the numbers in meta."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteError(f"non-finite number {x}")
    return format(x, ".17g")


def _escape(text: str, fmt: str) -> str:
    """A text cell as csv.writer writes it (quoted when it holds a comma, a
    quote or a line break) or as a JSON string, for a %-template."""
    if fmt == "json":
        text = json.dumps(text)
    elif any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text.replace("%", "%%")


def _batch(rec: ScanRecord, fmt: str) -> tuple[str, np.ndarray]:
    """One row of ``rec`` as a %-template, with its text cells escaped once
    for the whole batch and %.17g (the format of ``_g17``) in its number
    cells, and the numbers of its rows, one row per number cell.  A JSON
    row starts with its separator from the row before."""
    value = np.atleast_1d(np.asarray(rec.value, dtype=complex))
    numbers = {"value_re": value.real, "value_im": value.imag}
    if rec.s is not None:
        s = np.atleast_1d(np.asarray(rec.s, dtype=complex))
        numbers["s_re"], numbers["s_im"] = s.real, s.imag
    if rec.err_est is not None:
        numbers["err_est"] = np.atleast_1d(np.asarray(rec.err_est, float))
    text = {"quantity": rec.quantity, "n": "" if rec.n is None else str(rec.n),
            "meta": ";".join(f"{k}={v}" for k, v in sorted(rec.meta.items()))}
    names = _COLUMNS if fmt == "csv" else sorted(_COLUMNS)
    number = "%.17g" if fmt == "csv" else '"%.17g"'
    cells = [number if c in numbers else _escape(text.get(c, ""), fmt)
             for c in names]
    if fmt == "csv":
        row = ",".join(cells) + "\r\n"
    else:
        row = ",\n {" + ", ".join(f'"{c}": {v}' for c, v in zip(names, cells)) \
            + "}"
    return row, np.array([numbers[c] for c in names if c in numbers])


class RecordWriter:
    """Writes records to ``--out`` (or stdout); one flush per batch."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._fh = open(cfg.out, "w", newline="") if cfg.out else sys.stdout
        self._owns = cfg.out is not None
        self._first_json = True
        if cfg.fmt == "csv":
            self._fh.write(",".join(_COLUMNS) + "\r\n")
        else:
            self._fh.write("[")
        self._fh.flush()

    def write_all(self, records) -> None:
        """Write the rows of the records in order, with one write call and
        one flush.  At the first row with an inf or nan number, write the
        rows before it and raise NonFiniteError."""
        chunks = []
        try:
            for rec in records:
                row, numbers = _batch(rec, self.cfg.fmt)
                finite = np.isfinite(numbers).all(axis=0)
                good = finite.size if finite.all() else int(np.argmin(finite))
                text = (row * good) \
                    % tuple(numbers[:, :good].T.ravel().tolist())
                if self.cfg.fmt == "json" and self._first_json and good:
                    text, self._first_json = text[1:], False
                chunks.append(text)
                if good < finite.size:
                    bad = numbers[:, good][~np.isfinite(numbers[:, good])][0]
                    raise NonFiniteError(
                        f"{rec.quantity} record: non-finite number {bad}")
        finally:
            self._fh.write("".join(chunks))
            self._fh.flush()

    def write(self, rec: ScanRecord) -> None:
        """``write_all`` of one record."""
        self.write_all([rec])

    def close(self) -> None:
        if self.cfg.fmt == "json":
            self._fh.write("\n]\n")
        self._fh.flush()
        if self._owns:
            self._fh.close()


def _variant(text: str) -> lattice.StencilVariant:
    try:
        return lattice.StencilVariant(text)
    except ValueError:
        raise ValueError(f"variant must be five or nine, got {text!r}")


def _sum_error_estimate(grid: lattice.TorusGrid, variant, s: complex) -> float:
    """eps log2(n^2) sum |lambda^-s| over the n^2 - 1 nonzero eigenvalues."""
    lam, mult = lattice.folded_spectrum(grid.n, variant)
    mags = np.exp(-s.real * np.log(lam))
    return float(np.finfo(float).eps * math.log2(grid.n ** 2)
                 * np.dot(mult, mags))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_zeta(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    grid = lattice.TorusGrid(args.n)
    variant = _variant(args.variant)
    t0 = time.perf_counter()
    val = lattice.spectral_zeta(grid, variant, s)
    dt = time.perf_counter() - t0
    err = _sum_error_estimate(grid, variant, s)
    print(f"zeta n={args.n} variant={args.variant} done in {dt:.3f}s",
          file=sys.stderr)
    w.write(ScanRecord(s, "zeta_discrete", val, n=args.n, err_est=err,
                       meta={"variant": args.variant}))


def _cmd_zeta1d(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    val = lattice.spectral_zeta_1d(args.n, s)
    w.write(ScanRecord(s, "zeta_circle", val, n=args.n))


def _require_series_domain(im: float, cfg: RunConfig) -> None:
    """--strict: reject Im(s) outside the validated zeta/beta domain."""
    if cfg.strict and abs(im) > special.SERIES_MAX_IM:
        raise DomainError(
            f"--strict: |Im(s)| = {abs(im):g} outside the validated "
            f"zeta/beta domain |Im(s)| <= {special.SERIES_MAX_IM:g}")


def _cmd_epstein(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_series_domain(s.imag, cfg)
    w.write(ScanRecord(s, "epstein", epstein.epstein_zeta_2d(s)))
    if args.direct_cutoff:
        val, bound = epstein.epstein_direct_sum(s, args.direct_cutoff)
        w.write(ScanRecord(s, "epstein_direct", val, err_est=bound,
                           meta={"cutoff": str(args.direct_cutoff)}))


def _xi_with_defect(s: np.ndarray):
    """xi_2(s), the relative functional-equation defect and the underflow
    flag at every point of s, from one batched pass over the points and
    their mirrors 1 - s.  Where both underflow to 0 the defect is vacuous:
    the flag is set, and one warning goes to stderr."""
    xi = epstein.complete_xi_array(np.concatenate([s, 1.0 - s]))
    val, mirror = xi[:s.size], xi[s.size:]
    defect = np.abs(val - mirror) / (1.0 + np.abs(val))
    underflow = (val == 0.0) & (mirror == 0.0)
    if underflow.any():
        print("warning: xi_2 underflows to 0 at s and 1 - s; the "
              "functional-equation defect there is vacuous", file=sys.stderr)
    return val, defect, underflow


def _cmd_xi(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_series_domain(s.imag, cfg)
    [val], [defect], [underflow] = _xi_with_defect(np.array([s]))
    meta = {"underflow": "true"} if underflow else {}
    w.write(ScanRecord(s, "xi", val, meta=dict(meta, fe_defect=_g17(defect))))


def _cmd_omega(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_series_domain(s.imag, cfg)
    if args.ratio:
        val = conjecture.omega_ratio(s, route=args.route)
        w.write(ScanRecord(s, "omega_ratio", val, meta={"route": args.route}))
    else:
        w.write(ScanRecord(s, "omega", epstein.omega(s)))


def _cmd_coeff(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    kind = args.which
    if kind == "a":
        variant = _variant(args.variant)
        val = expansion.leading_coeff(s, variant, cfg.quad_tol)
        err = expansion.leading_coeff_error(s, variant, cfg.quad_tol)
        w.write(ScanRecord(s, "coeff_a", val, err_est=err,
                           meta={"variant": args.variant}))
    elif kind == "b0":
        w.write(ScanRecord(s, "coeff_b0", expansion.coeff_b0(s)))
    elif kind == "b1tilde":
        w.write(ScanRecord(s, "coeff_b1tilde", expansion.coeff_b1_tilde(s)))
    elif kind == "b1":
        w.write(ScanRecord(s, "coeff_b1", expansion.coeff_b1(s)))
    elif kind == "angular":
        res = expansion.angular_lattice_sum(s)
        w.write(ScanRecord(s, "angular_sum", res.value, err_est=res.error))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)


def _require_strip(s: complex, cfg: RunConfig) -> None:
    if cfg.strict and not 0.0 < s.real < 1.0:
        raise DomainError(f"--strict: Re(s) = {s.real} outside the strip (0,1)")


def _cmd_expansion(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_strip(s, cfg)
    variant = _variant(args.variant)
    n_list = _parse_int_list(args.n_list)
    res = expansion.expansion_summary(
        s, variant, n_list, orders_included=args.orders, tol=cfg.quad_tol)
    meta = {"variant": args.variant, "orders": str(args.orders)}
    coeff_meta = dict(meta,
                      leading=_g17(res.leading.real) + "+" + _g17(res.leading.imag) + "i",
                      v_front=_g17(res.v_front.real) + "+" + _g17(res.v_front.imag) + "i")
    w.write_all([
        ScanRecord(s, "expansion_b0", res.b0, meta=coeff_meta),
        ScanRecord(s, "expansion_b1", res.b1, meta=meta),
        *(ScanRecord(s, "expansion_residual", complex(resid), n=n, meta=meta)
          for n, resid in res.residuals),
        ScanRecord(s, "expansion_slope", complex(res.slope), meta=meta)])


def _cmd_hn(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_strip(s, cfg)
    n_list = _parse_int_list(args.n_list)
    w.write_all(conjecture.hn_ratio_study(s, n_list, tol=cfg.quad_tol))


def _cmd_emcheck(args, cfg: RunConfig, w: RecordWriter) -> None:
    if args.fn == "runge":
        fn = lambda x: 1.0 / (1.0 + x * x)
        deriv = lambda k, x: ((1j) * (-1) ** k * math.factorial(k)
                              * (x + 1j) ** (-k - 1)).real
    else:  # square
        fn = lambda x: x * x
        deriv = lambda k, x: 2.0 * x if k == 1 else 0.0
    lhs, rhs = expansion.em_verify(args.m, args.n, fn, deriv)
    meta = {"fn": args.fn, "m": str(args.m)}
    w.write_all([ScanRecord(None, q, complex(v), n=args.n, meta=meta)
                 for q, v in (("em_lhs", lhs), ("em_rhs", rhs),
                              ("em_diff", abs(lhs - rhs)))])


def _points(re, im) -> np.ndarray:
    """complex(a, b) for every pair of the broadcast ``re`` and ``im``, in
    C order, as a 1-D array."""
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out.ravel()


def _runs(labels) -> list:
    """(lo, hi) of each run of equal consecutive ``labels``."""
    labels = np.asarray(labels)
    cuts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(),
            labels.size]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _cmd_scan(args, cfg: RunConfig, w: RecordWriter) -> None:
    kind = args.kind
    if kind == "omega":
        if args.b is None:
            raise ValueError("scan --kind omega requires --b")
        if cfg.strict and not args.b > 65.0:
            raise DomainError("--strict: omega scan requires b > 65")
        _require_series_domain(args.b, cfg)
        if args.points < 1:
            return
        pts = _points(np.linspace(args.a_min, args.a_max, args.points),
                      args.b)
        vals = np.abs(conjecture.omega_ratio_array(pts))
        monotone = bool(np.all(vals[1:] > vals[:-1]))
        w.write(ScanRecord(pts, "omega_ratio", vals,
                           meta={"monotone_scan": str(monotone).lower()}))
    elif kind == "zeros":
        if args.t_min >= args.t_max:
            return
        _require_series_domain(args.t_max, cfg)
        recs = epstein.find_critical_zeros(args.t_min, args.t_max, args.step,
                                           strict=cfg.strict)
        ts = np.array([r.t for r in recs])
        residuals = np.array([r.residual for r in recs])
        sources = [r.source.value for r in recs]
        w.write_all(ScanRecord(_points(0.5, ts[lo:hi]), "zero", ts[lo:hi],
                               err_est=residuals[lo:hi],
                               meta={"source": sources[lo],
                                     "expected": str(recs[lo].expected),
                                     "found": str(recs[lo].found)})
                    for lo, hi in _runs(sources))
    elif kind == "hn":
        if args.s is None:
            raise ValueError("scan --kind hn requires --s")
        _cmd_hn(args, cfg, w)
    elif kind == "xi-defect":
        pts = _points(
            np.linspace(args.re_min, args.re_max, args.re_points)[:, None],
            np.linspace(args.im_min, args.im_max, args.im_points))
        _require_series_domain(np.abs(pts.imag).max(initial=0.0), cfg)
        _, defect, underflow = _xi_with_defect(pts)
        w.write_all(ScanRecord(pts[lo:hi], "xi_defect", defect[lo:hi],
                               meta={"underflow": "true"} if underflow[lo]
                               else {})
                    for lo, hi in _runs(underflow))
    else:  # pragma: no cover
        raise ValueError(kind)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toruszeta",
        description="Spectral zeta functions of discrete-torus Laplacians "
                    "and the Epstein-Riemann machinery")
    p.add_argument("--tol", type=float, default=None,
                   help="quadrature tolerance override")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--config", default=None,
                   help="key=value file overriding defaults")
    p.add_argument("--strict", action="store_true",
                   help="reject arguments outside the theorem regime")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("zeta", help="discrete spectral zeta on the 2-torus")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--variant", default="five")
    sp.add_argument("--s", required=True)
    sp.set_defaults(handler=_cmd_zeta)

    sp = sub.add_parser("zeta1d", help="discrete circle spectral zeta")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", required=True)
    sp.set_defaults(handler=_cmd_zeta1d)

    sp = sub.add_parser("epstein", help="zeta(Delta, s) via Glasser factors")
    sp.add_argument("--s", required=True)
    sp.add_argument("--direct-cutoff", type=int, default=0,
                    help="also emit the truncated direct lattice sum")
    sp.set_defaults(handler=_cmd_epstein)

    sp = sub.add_parser("xi", help="complete Epstein zeta xi_2(s)")
    sp.add_argument("--s", required=True)
    sp.set_defaults(handler=_cmd_xi)

    sp = sub.add_parser("omega", help="Omega(s) or the Omega ratio")
    sp.add_argument("--s", required=True)
    sp.add_argument("--ratio", action="store_true",
                    help="emit Omega(1-s)/Omega(s) instead of Omega(s)")
    sp.add_argument("--route", choices=("omega1", "omega2", "direct"),
                    default="omega1")
    sp.set_defaults(handler=_cmd_omega)

    sp = sub.add_parser("coeff", help="expansion coefficients")
    sp.add_argument("which", choices=("a", "b0", "b1", "b1tilde", "angular"))
    sp.add_argument("--s", required=True)
    sp.add_argument("--variant", default="nine")
    sp.set_defaults(handler=_cmd_coeff)

    sp = sub.add_parser("expansion", help="residual study of the expansion")
    sp.add_argument("--s", required=True)
    sp.add_argument("--variant", default="nine")
    sp.add_argument("--n-list", default="32,64,128,256")
    sp.add_argument("--orders", type=int, default=1)
    sp.set_defaults(handler=_cmd_expansion)

    sp = sub.add_parser("hn", help="|H_n(1-s)/H_n(s)| study")
    sp.add_argument("--s", required=True)
    sp.add_argument("--n-list", default="32,64,128,256")
    sp.set_defaults(handler=_cmd_hn)

    sp = sub.add_parser("scan", help="grid scans (omega, hn, xi-defect, zeros)")
    sp.add_argument("--kind", choices=("omega", "hn", "xi-defect", "zeros"),
                    required=True)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--a-min", type=float, default=0.01)
    sp.add_argument("--a-max", type=float, default=0.99)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--t-min", type=float, default=1.0)
    sp.add_argument("--t-max", type=float, default=20.0)
    sp.add_argument("--step", type=float, default=None,
                    help="zero scan: the largest sampling spacing in t "
                         "(default: Gram points only)")
    sp.add_argument("--s", default=None)
    sp.add_argument("--n-list", default="32,64,128,256")
    sp.add_argument("--re-min", type=float, default=0.1)
    sp.add_argument("--re-max", type=float, default=0.9)
    sp.add_argument("--re-points", type=int, default=5)
    sp.add_argument("--im-min", type=float, default=1.0)
    sp.add_argument("--im-max", type=float, default=40.0)
    sp.add_argument("--im-points", type=int, default=4)
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("emcheck", help="Euler-Maclaurin two-sided identity")
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--fn", choices=("runge", "square"), default="runge")
    sp.set_defaults(handler=_cmd_emcheck)
    return p


def _build_config(args) -> RunConfig:
    values: dict = {}
    if args.config:
        raw = _load_config_file(args.config)
        casts = {"quad_tol": float, "fmt": str, "out": str,
                 "strict": lambda v: v.lower() == "true"}
        for key, val in raw.items():
            if key not in casts:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = casts[key](val)
    if args.tol is not None:
        values["quad_tol"] = args.tol
    if args.format is not None:
        values["fmt"] = args.format
    if args.out is not None:
        values["out"] = args.out
    if args.strict:
        values["strict"] = True
    return RunConfig(**values)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--s -0.5+3i`` as ``--s=-0.5+3i``: argparse takes a word that
    starts with '-' for an option, not for the value of the option before
    it, unless the word is a plain negative decimal."""
    out = list(argv[:1])
    for arg in argv[1:]:
        if arg.startswith("-") and _COMPLEX_RE.match(arg) \
                and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        cfg = _build_config(args)
        writer = RecordWriter(cfg)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args.handler(args, cfg, writer)
        writer.close()
        return 0
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _CONVERGENCE_ERRORS as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
