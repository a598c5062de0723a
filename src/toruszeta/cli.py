"""Command-line front end.

Every computation is exposed as a subcommand that emits machine-readable
records, either CSV (fixed column order
``quantity,s_re,s_im,n,value_re,value_im,err_est,meta``) or JSON (an array
of objects with the same keys).  Numbers are serialized with 17 significant
digits, so re-parsing reproduces the binary values exactly and identical
configurations produce byte-identical output files; timing goes to stderr
only.  Rows are built here alone: each handler calls the library, which
returns numbers, and wraps them in ``ScanRecord``s, whose quantity must be
in ``QUANTITY_REGISTRY``.  A scan writes its rows as columnar records: each
is checked for inf and nan one column at a time, its text cells escaped
once, and each distinct number of a column formatted once (``_rows``).

The command line is read in one pass over one table of subcommands
(``_COMMANDS``: per subcommand its handler, help and options, per option
its type, default or ``_REQUIRED``, and choices): global flags, then the
subcommand, then its options and positionals in any order.  An option is
given as ``--opt value`` or ``--opt=value``, by any unique prefix of its
name, and the last of a repeated option wins; a value may start with '-'
(``--s -0.5+3i``).  ``-h`` prints the help of either level, generated from
the same table.

Exit codes: 0 ok, 2 domain/usage errors, 3 convergence errors or a
non-finite result, 4 internal.  The header goes out with the first row, so
a command that fails before its first row leaves stdout (or ``--out``)
empty, whatever raised; one that fails after it leaves the rows written so
far.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import conjecture, epstein, expansion, lattice, special
from .errors import (ConvergenceError, DegenerateError, DescriptorError,
                     DomainError, NonFiniteError, PoleError, RangeError,
                     ShapeError, SignalLostError, ZeroDenominatorError)

_USAGE_ERRORS = (DomainError, RangeError, DegenerateError, PoleError,
                 ZeroDenominatorError, DescriptorError, ShapeError, ValueError)
_CONVERGENCE_ERRORS = (ConvergenceError, SignalLostError, NonFiniteError)

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


_COLUMNS = ("quantity", "s_re", "s_im", "n", "value_re", "value_im",
            "err_est", "meta")

QUANTITY_REGISTRY = frozenset({
    "omega_ratio", "hn_ratio", "hn_ratio_defect_n2", "xi_defect", "zero",
    "zeta_discrete", "zeta_circle", "epstein", "epstein_direct", "xi",
    "omega", "coeff_a", "coeff_b0", "coeff_b1tilde", "coeff_b1",
    "angular_sum", "expansion_b0", "expansion_b1", "expansion_residual",
    "expansion_slope", "em_lhs", "em_rhs", "em_diff",
})


@dataclass(frozen=True)
class ScanRecord:
    """A batch of result rows that share ``quantity`` (which must be in
    QUANTITY_REGISTRY), ``n`` and ``meta``: the unit the CLI writes.

    ``s``, ``value`` and ``err_est`` are each one number, one row, or a
    1-D column with one entry per row; a record of numbers is a batch of
    one.  ``s`` is None for rows not tied to a point s.
    """

    s: complex | np.ndarray | None
    quantity: str
    value: complex | np.ndarray
    n: int | None = None
    err_est: float | np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.quantity not in QUANTITY_REGISTRY:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if len({np.size(c) for c in (self.s, self.value, self.err_est)
                if c is not None}) > 1:
            raise ValueError(f"{self.quantity} record: columns of "
                             "different lengths")


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


def _batch(rec: ScanRecord, fmt: str) -> tuple[list, np.ndarray]:
    """The cells of one row of ``rec`` in the column order of ``fmt``, its
    text cells escaped once for the whole batch and None in its number
    cells, and the numbers of its rows, one row per number cell."""
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
    return ([None if c in numbers else _escape(text.get(c, ""), fmt)
             for c in names],
            np.array([numbers[c] for c in names if c in numbers]))


def _template(cells: list, fmt: str) -> str:
    """A row of ``fmt`` from its cells; a JSON row starts with its
    separator from the row before."""
    if fmt == "csv":
        return ",".join(cells) + "\r\n"
    return ",\n {" + ", ".join(f'"{c}": {v}' for c, v
                              in zip(sorted(_COLUMNS), cells)) + "}"


def _rows(cells: list, numbers: np.ndarray, fmt: str) -> str:
    """The rows of the finite ``numbers`` (a row per None of ``cells``) in
    the row template of ``cells``, every number as %.17g (as ``_g17``): a
    column whose bits are all equal formatted once, into the template, any
    other each distinct bit pattern once (so -0.0 and 0.0 stay apart)."""
    cells, columns, quote = list(cells), [], '"' * (fmt == "json")
    for i, column in zip([i for i, c in enumerate(cells) if c is None],
                         numbers):
        bits = column.view(np.uint64)
        if (bits == bits[0]).all():
            cells[i] = quote + "%.17g" % column[0] + quote
        else:  # return_inverse: a plain np.unique imports numpy.ma
            keys, inverse = np.unique(bits, return_inverse=True)
            columns.append(np.array(["%.17g" % x for x in keys.view(float)
                                     .tolist()], dtype=object)[inverse])
            cells[i] = quote + "%s" + quote
    varying = np.column_stack(columns).ravel().tolist() if columns else []
    return (_template(cells, fmt) * numbers.shape[1]) % tuple(varying)


class RecordWriter:
    """Writes records to ``--out`` (or stdout); one flush per batch.

    The file is opened here, but nothing is written to it before the first
    row: the header (the CSV header line or JSON's ``[``) goes out with the
    first row, or with ``close`` if no row came.  So a command that fails
    before its first row leaves its output empty."""

    def __init__(self, fmt: str, out: str | None):
        self.fmt = fmt
        # an empty --out is stdout, which is not ours to close
        self._owns = bool(out)
        self._fh = open(out, "w", newline="") if self._owns else sys.stdout
        self._head = ",".join(_COLUMNS) + "\r\n" if fmt == "csv" else "["

    def write_all(self, records) -> None:
        """Write the rows of the records in order, the header before the
        first row ever written, with one write call and one flush.  At the
        first row with an inf or nan number, write the rows before it and
        raise NonFiniteError."""
        chunks = []
        try:
            for rec in records:
                row, numbers = _batch(rec, self.fmt)
                finite = np.isfinite(numbers).all(axis=0)
                good = finite.size if finite.all() else int(np.argmin(finite))
                text = _rows(row, numbers[:, :good], self.fmt) if good else ""
                if good and self._head:
                    # the first JSON row has no separator before it
                    chunks.append(self._head)
                    text = text[1:] if self.fmt == "json" else text
                    self._head = ""
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

    def close(self, finish: bool = True) -> None:
        """Finish the output (the header if no row came, JSON's closing
        bracket) and close an ``--out`` file.  Unfinished (an error exit),
        only close the file: the output stays as far as it was written.
        Closing twice is harmless."""
        if finish:
            self._fh.write(self._head
                           + ("\n]\n" if self.fmt == "json" else ""))
            self._fh.flush()
        if self._owns:
            self._fh.close()


def _variant(text: str) -> lattice.StencilVariant:
    try:
        return lattice.StencilVariant(text)
    except ValueError:
        raise ValueError(f"variant must be five or nine, got {text!r}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_zeta(args, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    grid = lattice.TorusGrid(args.n)
    variant = _variant(args.variant)
    t0 = time.perf_counter()
    abs_parts = []
    val = lattice.spectral_zeta(grid, variant, s, abs_parts=abs_parts)
    dt = time.perf_counter() - t0
    # eps log2(n^2) sum |lambda^-s| over the n^2 - 1 nonzero eigenvalues
    err = float(np.finfo(float).eps * math.log2(args.n ** 2)
                * math.fsum(abs_parts))
    print(f"zeta n={args.n} variant={args.variant} done in {dt:.3f}s",
          file=sys.stderr)
    w.write(ScanRecord(s, "zeta_discrete", val, n=args.n, err_est=err,
                       meta={"variant": args.variant}))


def _cmd_zeta1d(args, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    val = lattice.spectral_zeta_1d(args.n, s)
    w.write(ScanRecord(s, "zeta_circle", val, n=args.n))


def _require_series_domain(im: float, strict: bool) -> None:
    """--strict: reject Im(s) outside the validated zeta/beta domain."""
    if strict and abs(im) > special.SERIES_MAX_IM:
        raise DomainError(
            f"--strict: |Im(s)| = {abs(im):g} outside the validated "
            f"zeta/beta domain |Im(s)| <= {special.SERIES_MAX_IM:g}")


def _cmd_epstein(args, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_series_domain(s.imag, args.strict)
    direct = []
    if args.direct_cutoff:
        # before the closed form: a cutoff or an s it rejects costs no series
        val, bound = epstein.epstein_direct_sum(s, args.direct_cutoff)
        direct.append(ScanRecord(s, "epstein_direct", val, err_est=bound,
                                 meta={"cutoff": str(args.direct_cutoff)}))
    w.write_all([ScanRecord(s, "epstein", epstein.epstein_zeta_2d(s)), *direct])


def _xi_with_defect(s: np.ndarray):
    """xi_2(s), the relative functional-equation defect and the underflow
    flag at every point of s, from one batched pass over the points and
    their mirrors 1 - s.  Where both underflow to 0 the defect is vacuous:
    the flag is set, and one warning goes to stderr."""
    xi = epstein.complete_xi(np.concatenate([s, 1.0 - s]))
    val, mirror = xi[:s.size], xi[s.size:]
    defect = np.abs(val - mirror) / (1.0 + np.abs(val))
    underflow = (val == 0.0) & (mirror == 0.0)
    if underflow.any():
        print("warning: xi_2 underflows to 0 at s and 1 - s; the "
              "functional-equation defect there is vacuous", file=sys.stderr)
    return val, defect, underflow


def _cmd_xi(args, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_series_domain(s.imag, args.strict)
    [val], [defect], [underflow] = _xi_with_defect(np.array([s]))
    meta = {"underflow": "true"} if underflow else {}
    w.write(ScanRecord(s, "xi", val, meta=dict(meta, fe_defect=_g17(defect))))


def _cmd_omega(args, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_series_domain(s.imag, args.strict)
    if args.ratio:
        val = conjecture.omega_ratio(s, route=args.route)
        w.write(ScanRecord(s, "omega_ratio", val, meta={"route": args.route}))
    else:
        w.write(ScanRecord(s, "omega", epstein.omega(s)))


def _cmd_coeff(args, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    if args.which == "a":
        variant = _variant(args.variant)
        res = expansion.leading_coeff(s, variant, args.tol)
        w.write(ScanRecord(s, "coeff_a", res.value, err_est=res.error,
                           meta={"variant": args.variant}))
    elif args.which == "b0":
        w.write(ScanRecord(s, "coeff_b0", expansion.coeff_b0(s)))
    elif args.which == "b1tilde":
        w.write(ScanRecord(s, "coeff_b1tilde", expansion.coeff_b1_tilde(s)))
    elif args.which == "b1":
        w.write(ScanRecord(s, "coeff_b1", expansion.coeff_b1(s)))
    else:  # angular
        res = expansion.angular_lattice_sum(s)
        w.write(ScanRecord(s, "angular_sum", res.value, err_est=res.error))


def _require_strip(s: complex, strict: bool) -> None:
    if strict and not 0.0 < s.real < 1.0:
        raise DomainError(f"--strict: Re(s) = {s.real} outside the strip (0,1)")


def _cmd_expansion(args, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_strip(s, args.strict)
    variant = _variant(args.variant)
    n_list = _parse_int_list(args.n_list)
    slope, residuals, (leading, v_front, const, b1) = \
        expansion.residual_order(s, variant, n_list,
                                 orders_included=args.orders, tol=args.tol)
    b0 = epstein.v_factor_inv(2, s) * const  # coeff_b0's expression
    meta = {"variant": args.variant, "orders": str(args.orders)}
    coeff_meta = dict(meta,
                      leading=_g17(leading.real) + "+" + _g17(leading.imag) + "i",
                      v_front=_g17(v_front.real) + "+" + _g17(v_front.imag) + "i")
    w.write_all([
        ScanRecord(s, "expansion_b0", b0, meta=coeff_meta),
        ScanRecord(s, "expansion_b1", b1, meta=meta),
        *(ScanRecord(s, "expansion_residual", complex(resid), n=n, meta=meta)
          for n, resid in residuals),
        ScanRecord(s, "expansion_slope", complex(slope), meta=meta)])


def _cmd_hn(args, w: RecordWriter) -> None:
    s = parse_complex(args.s)
    _require_strip(s, args.strict)
    n_list = _parse_int_list(args.n_list)
    ratios, fallback = conjecture.hn_ratio_study(s, n_list, tol=args.tol)
    meta = {"near_zero": str(fallback is not None).lower()}
    if fallback is not None:
        meta["omega_ratio_fallback"] = repr(float(fallback))
    w.write_all(ScanRecord(s, quantity, value, n=n, meta=meta)
                for n, ratio in zip(n_list, ratios)
                for quantity, value in (("hn_ratio", ratio),
                                        ("hn_ratio_defect_n2",
                                         (ratio - 1.0) * n * n)))


def _cmd_emcheck(args, w: RecordWriter) -> None:
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


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _require_finite(args, *dests) -> None:
    """Reject a non-finite scan bound before any point is built from it."""
    for dest in dests:
        value = getattr(args, dest)
        if not math.isfinite(value):
            raise DomainError(f"{_flag(dest)} must be finite, got {value}")


# the most points a scan evaluates: 2^18 take ~1.8 s and ~150 MB on a Xeon
SCAN_MAX_POINTS = 2 ** 18


def _grid(args, lo: str, hi: str, count: str) -> np.ndarray:
    """``np.linspace`` of the options ``lo``, ``hi`` and ``count``, once no
    bound is non-finite, their span does not overflow and 0 <= count <=
    ``SCAN_MAX_POINTS``: NumPy would make non-finite points or raise."""
    _require_finite(args, lo, hi)
    a, b, k = getattr(args, lo), getattr(args, hi), getattr(args, count)
    if not math.isfinite(b - a):
        raise DomainError(f"{_flag(hi)} - {_flag(lo)} overflows: {b} - {a}")
    if k < 0:
        raise DomainError(f"{_flag(count)} must not be negative, got {k}")
    if k > SCAN_MAX_POINTS:
        raise DomainError(f"{_flag(count)} = {k} exceeds {SCAN_MAX_POINTS}")
    return np.linspace(a, b, k)


def _cmd_scan(args, w: RecordWriter) -> None:
    if args.kind == "omega":
        if args.b is None:
            raise ValueError("scan --kind omega requires --b")
        real = _grid(args, "a_min", "a_max", "points")
        _require_finite(args, "b")
        if args.strict and not args.b > 65.0:
            raise DomainError("--strict: omega scan requires b > 65")
        _require_series_domain(args.b, args.strict)
        pts = _points(real, args.b)
        vals = np.abs(conjecture.omega_ratio(pts))
        monotone = bool(np.all(vals[1:] > vals[:-1]))
        w.write(ScanRecord(pts, "omega_ratio", vals,
                           meta={"monotone_scan": str(monotone).lower()}))
    elif args.kind == "zeros":
        _require_finite(args, "t_min", "t_max")
        if args.t_min >= args.t_max:
            return
        _require_series_domain(args.t_max, args.strict)
        recs = epstein.find_critical_zeros(args.t_min, args.t_max, args.step,
                                           strict=args.strict)
        ts = np.array([r.t for r in recs])
        residuals = np.array([r.residual for r in recs])
        sources = [r.source.value for r in recs]
        w.write_all(ScanRecord(_points(0.5, ts[lo:hi]), "zero", ts[lo:hi],
                               err_est=residuals[lo:hi],
                               meta={"source": sources[lo],
                                     "expected": str(recs[lo].expected),
                                     "found": str(recs[lo].found)})
                    for lo, hi in _runs(sources))
    else:  # xi-defect
        real = _grid(args, "re_min", "re_max", "re_points")
        imag = _grid(args, "im_min", "im_max", "im_points")
        if real.size * imag.size > SCAN_MAX_POINTS:
            raise DomainError(f"--re-points x --im-points = "
                              f"{real.size * imag.size} exceeds "
                              f"{SCAN_MAX_POINTS}")
        _require_series_domain(np.abs(imag).max(initial=0.0), args.strict)
        pts = _points(real[:, None], imag)
        _, defect, underflow = _xi_with_defect(pts)
        w.write_all(ScanRecord(pts[lo:hi], "xi_defect", defect[lo:hi],
                               meta={"underflow": "true"} if underflow[lo]
                               else {})
                    for lo, hi in _runs(underflow))


# ---------------------------------------------------------------------------
# command line: one table of subcommands and options, read in one pass
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Opt:
    """One entry of the command-line table: an option ``--name`` or a
    positional ``name``, the type its value is read with (None for a flag
    that takes no value and stores True), its default or ``_REQUIRED``,
    its choices and its help.  ``args.<dest>`` holds its value."""

    __slots__ = ("flag", "type", "default", "choices", "help", "dest")

    def __init__(self, flag, type=str, default=None, choices=(), help=""):
        self.flag, self.type, self.default = flag, type, default
        self.choices, self.help = choices, help
        self.dest = flag.lstrip("-").replace("-", "_")


_S = _Opt("--s", default=_REQUIRED)
_N_LIST = _Opt("--n-list", default="32,64,128,256")

# subcommand: (handler, help, options and positionals)
_COMMANDS = {
    "zeta": (_cmd_zeta, "discrete spectral zeta on the 2-torus", (
        _Opt("--n", int, _REQUIRED), _Opt("--variant", default="five"), _S)),
    "zeta1d": (_cmd_zeta1d, "discrete circle spectral zeta", (
        _Opt("--n", int, _REQUIRED), _S)),
    "epstein": (_cmd_epstein, "zeta(Delta, s) via Glasser factors", (
        _S, _Opt("--direct-cutoff", int, 0,
                 help="also emit the truncated direct lattice sum"))),
    "xi": (_cmd_xi, "complete Epstein zeta xi_2(s)", (_S,)),
    "omega": (_cmd_omega, "Omega(s) or the Omega ratio", (
        _S, _Opt("--ratio", None, False,
                 help="emit Omega(1-s)/Omega(s) instead of Omega(s)"),
        _Opt("--route", default="omega1",
             choices=("omega1", "omega2", "direct")))),
    "coeff": (_cmd_coeff, "expansion coefficients", (
        _Opt("which", default=_REQUIRED,
             choices=("a", "b0", "b1", "b1tilde", "angular")),
        _S, _Opt("--variant", default="nine"))),
    "expansion": (_cmd_expansion, "residual study of the expansion", (
        _S, _Opt("--variant", default="nine"), _N_LIST,
        _Opt("--orders", int, 1))),
    "hn": (_cmd_hn, "|H_n(1-s)/H_n(s)| study", (_S, _N_LIST)),
    "scan": (_cmd_scan, "grid scans (omega, xi-defect, zeros)", (
        _Opt("--kind", default=_REQUIRED,
             choices=("omega", "xi-defect", "zeros")),
        _Opt("--b", float), _Opt("--a-min", float, 0.01),
        _Opt("--a-max", float, 0.99), _Opt("--points", int, 101),
        _Opt("--t-min", float, 1.0), _Opt("--t-max", float, 20.0),
        _Opt("--step", float, help="zero scan: the largest sampling spacing "
                                   "in t (default: Gram points only)"),
        _Opt("--re-min", float, 0.1), _Opt("--re-max", float, 0.9),
        _Opt("--re-points", int, 5), _Opt("--im-min", float, 1.0),
        _Opt("--im-max", float, 40.0), _Opt("--im-points", int, 4))),
    "emcheck": (_cmd_emcheck, "Euler-Maclaurin two-sided identity", (
        _Opt("--m", int, 3), _Opt("--n", int, 10),
        _Opt("--fn", default="runge", choices=("runge", "square")))),
}

_GLOBAL = (
    _Opt("--tol", float, 1e-12, help="quadrature tolerance override"),
    _Opt("--format", default="csv", choices=("csv", "json")),
    _Opt("--out", help="output path (default stdout)"),
    _Opt("--strict", None, False,
         help="reject arguments outside the theorem regime"),
    _Opt("command", default=_REQUIRED, choices=tuple(_COMMANDS)),
)
_HELP = _Opt("--help", None, help="show this help message and exit")
_DESCRIPTION = ("Spectral zeta functions of discrete-torus Laplacians and the "
                "Epstein-Riemann machinery")


def _table(prog: str) -> tuple:
    """The options and positionals of ``toruszeta`` or ``toruszeta CMD``."""
    command = prog.partition(" ")[2]
    return _COMMANDS[command][2] if command else _GLOBAL


def _spell(opt: _Opt) -> str:
    if opt is _HELP:
        return "-h, --help"
    meta = "{" + ",".join(opt.choices) + "}" if opt.choices \
        else opt.dest.upper()
    if opt.flag[0] != "-":
        return meta
    return opt.flag if opt.type is None else f"{opt.flag} {meta}"


def _usage(prog: str) -> str:
    words = ["[-h]"]
    opts = _table(prog)
    for opt in sorted(opts, key=lambda o: o.flag[0] != "-"):
        word = _spell(opt)
        words.append(word if opt.default is _REQUIRED else f"[{word}]")
    if opts is _GLOBAL:
        words.append("...")
    return f"usage: {prog} " + " ".join(words)


def _help(prog: str) -> str:
    """``-h`` of one level, generated from the table."""
    command = prog.partition(" ")[2]
    lines = [_usage(prog), "",
             _COMMANDS[command][1] if command else _DESCRIPTION, ""]
    opts = _table(prog)
    if not command:
        lines += ["commands:"] + [f"  {name:<22}{entry[1]}".rstrip()
                                  for name, entry in _COMMANDS.items()] + [""]
    lines.append("options:")
    for opt in (_HELP, *opts):
        if opt.flag[0] == "-" or command:
            lines.append(f"  {_spell(opt):<22}{opt.help}".rstrip())
    return "\n".join(lines) + "\n"


def _fail(prog: str, message: str):
    """A bad command line: usage and the error on stderr, exit 2."""
    sys.stderr.write(f"{_usage(prog)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _match(word: str, flags: dict, prog: str):
    """``(option, explicit value or None)`` for a word that names an option
    by its flag, a unique prefix of it, or either with ``=value``;
    ``(None, None)`` for one that looks like an option but names none; None
    for a value (a word without a leading '-', '-', a negative number)."""
    if word[:1] != "-" or word == "-":
        return None
    if word in flags:
        return flags[word], None
    name, eq, value = word.partition("=")
    if eq and name in flags:
        return flags[name], value
    if word[:2] == "--" and len(name) > 2:
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            _fail(prog, f"ambiguous option: {word} could match "
                        + ", ".join(hits))
        if hits:
            return flags[hits[0]], value if eq else None
    elif word[:2] == "-h":
        return _HELP, word[2:]
    # -5, -.5 and -1.5 are negative numbers, values wherever they stand
    whole, dot, frac = word[1:].partition(".")
    digits = frac if dot else whole
    if digits.isdecimal() and (not whole or whole.isdecimal()) or " " in word:
        return None
    return None, None


def _convert(opt: _Opt, text: str, prog: str):
    try:
        value = opt.type(text)
    except ValueError:
        _fail(prog, f"argument {opt.flag}: invalid {opt.type.__name__} "
                    f"value: {text!r}")
    if opt.choices and value not in opt.choices:
        _fail(prog, f"argument {opt.flag}: invalid choice: {value!r} "
                    f"(choose from {', '.join(map(repr, opt.choices))})")
    return value


def _read(words: list, prog: str, ns: dict) -> list:
    """Read ``words`` against the table of ``prog`` into ``ns``, and the
    words after the subcommand against its table; return the words that
    name nothing.  A value-taking option takes the next word unless that
    word is an option, and a word like ``-0.5+3i`` is always a value.
    Every word is matched first, so an ambiguous prefix is an error even
    after ``-h``."""
    opts = _table(prog)
    flags = {"-h": _HELP, "--help": _HELP}
    flags.update((opt.flag, opt) for opt in opts if opt.flag[0] == "-")
    tokens = [_match(word, flags, prog) for word in words]
    positionals = [opt for opt in opts if opt.flag[0] != "-"]
    for opt in opts:
        ns[opt.dest] = None if opt.default is _REQUIRED else opt.default
    seen, unknown = set(), []
    i = 0
    while i < len(words):
        word, token = words[i], tokens[i]
        i += 1
        if token is None:
            if not positionals:
                unknown.append(word)
                continue
            opt = positionals.pop(0)
            ns[opt.dest] = _convert(opt, word, prog)
            seen.add(opt)
            if opt.dest == "command":
                ns["handler"] = _COMMANDS[word][0]
                unknown += _read(words[i:], f"{prog} {word}", ns)
                break
            continue
        opt, value = token
        if opt is None:
            unknown.append(word)
            continue
        if opt.type is None:
            if value is not None:
                _fail(prog, f"argument {opt.flag}: ignored explicit "
                            f"argument {value!r}")
            if opt is _HELP:
                sys.stdout.write(_help(prog))
                raise SystemExit(0)
            ns[opt.dest] = True
        else:
            if value is None:
                if i == len(words) or (tokens[i] is not None
                                       and not _COMPLEX_RE.match(words[i])):
                    _fail(prog, f"argument {opt.flag}: expected one argument")
                value = words[i]
                i += 1
            ns[opt.dest] = _convert(opt, value, prog)
        seen.add(opt)
    missing = [opt.flag for opt in opts
               if opt.default is _REQUIRED and opt not in seen]
    if missing:
        _fail(prog, "the following arguments are required: "
                    + ", ".join(missing))
    return unknown


def parse_args(argv: list) -> SimpleNamespace:
    """The command line as ``args.<dest>`` plus ``args.handler``: global
    flags, then the subcommand, then its options and positionals.  A bad
    command line writes ``toruszeta[ CMD]: error: ...`` to stderr and
    raises SystemExit(2); ``-h``/``--help`` prints help and exits 0."""
    ns: dict = {}
    unknown = _read(list(argv), "toruszeta", ns)
    if unknown:
        _fail("toruszeta", "unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # before --out is opened: a bad tolerance writes nothing
        if not 0.0 < args.tol <= 1e-3:
            raise DomainError(f"quad_tol={args.tol} outside (0, 1e-3]")
        writer = RecordWriter(args.format, args.out)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args.handler(args, writer)
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
    finally:
        writer.close(finish=False)


if __name__ == "__main__":
    sys.exit(main())
