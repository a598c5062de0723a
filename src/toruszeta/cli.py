"""Command-line front end.

Every computation is exposed as a subcommand that emits machine-readable
records, either CSV (fixed column order
``quantity,s_re,s_im,n,value_re,value_im,err_est,meta``) or JSON (an array
of objects with the same keys).  Numbers are serialized with 17 significant
digits, so re-parsing reproduces the binary values exactly and identical
configurations produce byte-identical output files; timing goes to stderr
only.

Exit codes: 0 ok, 2 domain/usage errors, 3 convergence errors or a
non-finite result, 4 internal.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import conjecture, epstein, expansion, lattice
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
    lattice_cutoff: int = 256
    fmt: str = "csv"
    out: str | None = None
    strict: bool = False

    def __post_init__(self):
        if not 0.0 < self.quad_tol <= 1e-3:
            raise DomainError(f"quad_tol={self.quad_tol} outside (0, 1e-3]")
        if self.lattice_cutoff < 8:
            raise DomainError("lattice cutoff must be >= 8")
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
    return format(float(x), ".17g")


def _cells(rec: ScanRecord) -> dict:
    meta = ";".join(f"{k}={v}" for k, v in sorted(rec.meta.items()))
    return {
        "quantity": rec.quantity,
        "s_re": _g17(rec.s.real) if rec.s is not None else "",
        "s_im": _g17(rec.s.imag) if rec.s is not None else "",
        "n": str(rec.n) if rec.n is not None else "",
        "value_re": _g17(rec.value.real),
        "value_im": _g17(rec.value.imag),
        "err_est": _g17(rec.err_est) if rec.err_est is not None else "",
        "meta": meta,
    }


class RecordWriter:
    """Streams records to ``--out`` (or stdout); one flush per record."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._fh = open(cfg.out, "w", newline="") if cfg.out else sys.stdout
        self._owns = cfg.out is not None
        self._first_json = True
        if cfg.fmt == "csv":
            self._csv = csv.DictWriter(self._fh, fieldnames=_COLUMNS)
            self._csv.writeheader()
        else:
            self._fh.write("[")
        self._fh.flush()

    def write(self, rec: ScanRecord) -> None:
        """Write one record, or raise NonFiniteError before writing anything
        if its value, s or err_est is inf or nan."""
        nums = [rec.value.real, rec.value.imag]
        if rec.s is not None:
            nums += [rec.s.real, rec.s.imag]
        if rec.err_est is not None:
            nums.append(rec.err_est)
        if not all(math.isfinite(x) for x in nums):
            raise NonFiniteError(
                f"non-finite {rec.quantity} record: value={complex(rec.value)}, "
                f"s={rec.s}, err_est={rec.err_est}")
        cells = _cells(rec)
        if self.cfg.fmt == "csv":
            self._csv.writerow(cells)
        else:
            lead = "\n " if self._first_json else ",\n "
            self._first_json = False
            self._fh.write(lead + json.dumps(cells, sort_keys=True))
        self._fh.flush()

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


def _cmd_epstein(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    w.write(ScanRecord(s, "epstein", epstein.epstein_zeta_2d(s)))
    if args.direct_cutoff:
        val, bound = epstein.epstein_direct_sum(s, args.direct_cutoff)
        w.write(ScanRecord(s, "epstein_direct", val, err_est=bound,
                           meta={"cutoff": str(args.direct_cutoff)}))


def _xi_with_defect(s: complex) -> tuple[complex, float]:
    """xi_2(s) and its relative functional-equation defect."""
    val = epstein.complete_xi(s)
    return val, abs(val - epstein.complete_xi(1.0 - s)) / (1.0 + abs(val))


def _cmd_xi(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    val, defect = _xi_with_defect(s)
    w.write(ScanRecord(s, "xi", val, meta={"fe_defect": _g17(defect)}))


def _cmd_omega(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
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
        val = expansion.coeff_b1(s, cfg.lattice_cutoff)
        w.write(ScanRecord(s, "coeff_b1", val,
                           meta={"cutoff": str(cfg.lattice_cutoff)}))
    elif kind == "angular":
        res = expansion.angular_lattice_sum(s, cfg.lattice_cutoff, cfg.quad_tol)
        w.write(ScanRecord(s, "angular_sum", res.value, err_est=res.error,
                           meta={"cutoff": str(cfg.lattice_cutoff)}))
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
        s, variant, n_list, orders_included=args.orders, tol=cfg.quad_tol,
        cutoff=cfg.lattice_cutoff)
    meta = {"variant": args.variant, "orders": str(args.orders)}
    coeff_meta = dict(meta,
                      leading=_g17(res.leading.real) + "+" + _g17(res.leading.imag) + "i",
                      v_front=_g17(res.v_front.real) + "+" + _g17(res.v_front.imag) + "i")
    w.write(ScanRecord(s, "expansion_b0", res.b0, meta=coeff_meta))
    w.write(ScanRecord(s, "expansion_b1", res.b1, meta=meta))
    for n, resid in res.residuals:
        w.write(ScanRecord(s, "expansion_residual", complex(resid), n=n,
                           meta=meta))
    w.write(ScanRecord(s, "expansion_slope", complex(res.slope), meta=meta))


def _cmd_hn(args, cfg: RunConfig, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_strip(s, cfg)
    n_list = _parse_int_list(args.n_list)
    for rec in conjecture.hn_ratio_study(s, n_list, tol=cfg.quad_tol):
        w.write(rec)


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
    w.write(ScanRecord(None, "em_lhs", complex(lhs), n=args.n, meta=meta))
    w.write(ScanRecord(None, "em_rhs", complex(rhs), n=args.n, meta=meta))
    w.write(ScanRecord(None, "em_diff", complex(abs(lhs - rhs)), n=args.n,
                       meta=meta))


def _cmd_scan(args, cfg: RunConfig, w: RecordWriter) -> None:
    kind = args.kind
    if kind == "omega":
        if args.b is None:
            raise ValueError("scan --kind omega requires --b")
        if cfg.strict and not args.b > 65.0:
            raise DomainError("--strict: omega scan requires b > 65")
        if args.points < 1:
            return
        grid = np.linspace(args.a_min, args.a_max, args.points)
        vals = [abs(conjecture.omega_ratio(complex(a, args.b))) for a in grid]
        monotone = all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        for a, v in zip(grid, vals):
            w.write(ScanRecord(complex(a, args.b), "omega_ratio", complex(v),
                               meta={"monotone_scan": str(monotone).lower()}))
    elif kind == "zeros":
        if args.t_min >= args.t_max:
            return
        recs = epstein.find_critical_zeros(args.t_min, args.t_max, args.step)
        for r in recs:
            w.write(ScanRecord(complex(0.5, r.t), "zero", complex(r.t),
                               err_est=r.residual,
                               meta={"source": r.source.value}))
    elif kind == "hn":
        if args.s is None:
            raise ValueError("scan --kind hn requires --s")
        _cmd_hn(args, cfg, w)
    elif kind == "xi-defect":
        res = np.linspace(args.re_min, args.re_max, args.re_points)
        ims = np.linspace(args.im_min, args.im_max, args.im_points)
        pts = [complex(a, b) for a in res for b in ims]
        vals = [_xi_with_defect(s)[1] for s in pts]
        for s, v in zip(pts, vals):
            w.write(ScanRecord(s, "xi_defect", complex(v)))
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
    sp.add_argument("--step", type=float, default=0.02)
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
        casts = {"quad_tol": float, "lattice_cutoff": int, "fmt": str,
                 "out": str, "strict": lambda v: v.lower() == "true"}
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
