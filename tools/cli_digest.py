"""Fingerprint the CLI's stdout over a fixed command set.

Runs each command below through ``toruszeta.cli.main`` in this process and
prints one line per command: the sha256 of the bytes written to stdout, the
exit code and the argv.  stderr (timings, error messages) is discarded.
Two checkouts whose listings are identical write the same stdout bytes and
exit codes for every command, which is the gate for refactors that must not
change behaviour:

    PYTHONPATH=/path/to/old/src python tools/cli_digest.py > before.txt
    PYTHONPATH=src python tools/cli_digest.py > after.txt
    diff before.txt after.txt

The package path that was imported goes to stderr, so a listing can always
be tied to its checkout.  With ``--raw`` each digest line is followed by the
command's stdout, indented by four spaces, so that a change meant to move
last digits can be measured value by value, not only detected.  Two such
listings are compared with ``--compare``, the tolerance gate for changes
that may move last bits:

    PYTHONPATH=/path/to/old/src python tools/cli_digest.py --raw > before.txt
    PYTHONPATH=src python tools/cli_digest.py --raw > after.txt
    python tools/cli_digest.py --compare before.txt after.txt

It prints, per command, the exit codes, the row counts and the largest
relative and absolute differences of the values, of ``err_est`` and of the
numbers in ``meta``, and exits 1 when an exit code or a row count differs
or a command is in only one listing.  It summarizes ``differences``, which
gives them per quantity and column, and for the points ``s`` too.

``tests/cli_digest_raw.txt`` is this tool's ``--raw`` listing, frozen; the
test ``test_cli_output_matches_the_golden_listing`` reruns the commands and
bounds each column's differences from it.  A change that moves a printed
number on purpose, or adds a command, writes it anew and logs the
``--compare`` report against the old file:

    PYTHONPATH=src python tools/cli_digest.py --raw > tests/cli_digest_raw.txt
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import shlex
import sys

COMMANDS = (
    # README examples
    "zeta --n 256 --variant nine --s 0.3+2.0i",
    "zeta1d --n 512 --s 0.25",
    # an odd n that is no power of two, where a change in how the axis
    # scale (n/pi)^2 rounds would not go unseen
    "zeta1d --n 1023 --s 0.4+3i",
    "epstein --s 2 --direct-cutoff 40",
    "xi --s 0.3+5.0i",
    "omega --s 0.5+70i --ratio",
    "coeff a --s 0.5 --variant nine",
    "coeff angular --s 0.5",
    "expansion --s 0.3+2i --variant nine --n-list 32,64,128,256 --orders 1",
    "hn --s 0.3+2i --n-list 32,64,128,256",
    "scan --kind omega --b 70 --a-min 0.01 --a-max 0.99 --points 101",
    "scan --kind zeros --t-min 1 --t-max 20",
    "scan --kind xi-defect --re-points 5 --im-points 4",
    "emcheck --m 3 --n 10 --fn runge",
    # every subcommand, coeff kind, scan kind (omega, zeros and xi-defect),
    # route and variant
    "zeta --n 64 --variant five --s 0.5+1i",
    "epstein --s 0.3+2i",
    "omega --s 0.3+2i",
    "omega --s 0.3+2i --ratio --route omega2",
    "omega --s 0.3+2i --ratio --route direct",
    "omega --s 0.5+800i --ratio",
    "coeff a --s 0.3+2i --variant five",
    # past Re(s) = 1 the leading coefficient's panels stop on the roundoff floor
    "coeff a --s 1.5+1i --variant nine",
    "coeff a --s 1.5+1i --variant five",
    "coeff b0 --s 0.3+2i",
    "coeff b1tilde --s 0.3+2i",
    "coeff b1 --s 0.3+2i",
    "coeff angular --s 0.3+2i",
    "expansion --s 0.3+2i --variant five --n-list 32,64,128 --orders 1",
    "hn --s 0.5+14.1347i --n-list 32,64",
    # scan --kind hn, --s and --n-list are gone (exit 2 in the parser); hn
    # writes the bytes that alias wrote
    "scan --kind hn --s 0.3+2i --n-list 32,64",
    "hn --s 0.3+2i --n-list 32,64",
    "scan --kind zeros --t-min 5 --t-max 5",
    "emcheck --m 2 --n 6 --fn square",
    # critical-line scans over many series orders, up to the domain edge
    "scan --kind zeros --t-min 60 --t-max 80",
    "scan --kind zeros --t-min 1 --t-max 100",
    # the zero scan below both turning points, with a capped spacing, strict
    "scan --kind zeros --t-min 0.5 --t-max 8",
    "scan --kind zeros --t-min 1 --t-max 100 --step 0.02",
    "--strict scan --kind zeros --t-min 1 --t-max 100",
    "scan --kind omega --b 92 --points 301",
    # a grid symmetric about Im s = 0, five of its nine Re s mirrored
    # exactly by 1 - s: xi2 folds both conjugates and mirrors
    "scan --kind xi-defect --re-min 0.1 --re-max 0.9 --re-points 9 "
    "--im-min -30 --im-max 30 --im-points 7",
    "scan --kind xi-defect --re-min 0.05 --re-max 0.95 --re-points 4 "
    "--im-min -99 --im-max 99 --im-points 9",
    # xi2(-k) = xi2(k + 1) at the negative integers, on s and on 1 - s
    "xi --s 3",
    "scan --kind xi-defect --re-min 2 --re-max 3 --re-points 2 "
    "--im-min 0 --im-max 1 --im-points 2",
    # the reflections: both zeta/beta fronts, Gamma's inside pi^(-s) Gamma(s),
    # V_2 at height
    "epstein --s=-2.5+40i",
    "xi --s=-0.5+3i",
    "coeff b0 --s 0.3+150i",
    # global flags
    "--format json scan --kind xi-defect --re-points 3 --im-points 2",
    "--format json expansion --s 0.3+2i --variant nine --n-list 32,64,128",
    "--tol 1e-8 coeff a --s 0.5 --variant nine",
    "--strict scan --kind omega --b 70 --points 11",
    # the command line: a negative value after a space, an abbreviated
    # option, --opt=value for a global flag, the positional after an option
    "xi --s -0.5+3i",
    "scan --kind omega --b 70 --poi 11",
    "--format=json xi --s 0.3+5i",
    "coeff --s 0.3+2i b0",
    # outside the validated zeta/beta domain |Im s| <= 100
    "--strict omega --s 0.5+800i --ratio",
    "--strict xi --s 0.3+600i",
    # without --strict: xi_2 underflows there, flagged in meta
    "xi --s 0.3+600i",
    # error exits: usage (2, raised by the library or by the command-line
    # parser), noise floor (3)
    "--strict expansion --s 1.5+1i --variant nine --n-list 32,64,128",
    "zeta --n 1 --variant five --s 1",
    "scan --kind nope",
    "scan --kind zeros --t-min 1 --t-max 20 --step -0.1",
    # a bad zero-scan start, or an end past ZERO_SCAN_MAX_T: exit 2 before
    # any output
    "scan --kind zeros --t-min -1 --t-max 20",
    "scan --kind zeros --t-min 1 --t-max 1501",
    # hn near the line past that bound: V_2(s) overflows past |Im s| ~ 239,
    # before its near-zero probe runs a zero scan (exit 3, no output)
    "hn --s 0.5+1499.5i --n-list 32,64",
    "--tol 1e-4 expansion --s 0.3+2i --variant nine --n-list 64,128,256 --orders 1",
    # command lines the parser rejects: a missing required option, an
    # unknown option, an ambiguous prefix, a bad int, a global flag after
    # the subcommand
    "zeta --n 8",
    "xi --s 0.3+5i --bogus 1",
    "scan --kind xi-defect --re 3",
    "zeta --n x --s 1",
    "xi --strict --s 0.3+5i",
    # the streamed spectral sum: 77 terms, so the last leaf row is padded;
    # odd n, no Nyquist row and a partial last row; many slices
    "zeta --n 23 --variant nine --s 0.4+3i",
    "zeta --n 1023 --variant five --s 0.6+7i",
    "zeta --n 2048 --variant nine --s 0.745236+4.850816i",
    # the fold's edges: the smallest odd triangle, (0, 1) and (1, 1); leaf
    # rows longer than a slice, so every slice starts inside a triangle row;
    # the direct sum's smallest square
    "zeta --n 3 --s 0.5+1i",
    "zeta --n 3000 --variant nine --s 0.6+7i",
    "epstein --s 2.2+1.7i --direct-cutoff 1",
    # a scan's per-kind requirement missing: exit 2 before any output
    "scan --kind hn",
    "--format json scan --kind omega",
    # the header goes out with the first row, so a command that fails before
    # it writes nothing, whatever raised: no CSV header, no lone "[", and no
    # epstein row without its direct sum
    "--format json --strict xi --s 0.3+600i",
    "xi --s garbage",
    "epstein --s 0.5 --direct-cutoff 5",
    "coeff a --s 2 --variant nine",
    # a non-finite scan bound is a usage error before any point is built
    "scan --kind omega --b 70 --a-max inf",
    "scan --kind xi-defect --im-max inf",
    "scan --kind omega --b 70 --a-min nan",
    # so are finite bounds whose span overflows, and a negative point count;
    # a count of 0 is an empty scan
    "scan --kind omega --b 70 --a-min -1e308 --a-max 1e308 --points 3",
    "scan --kind xi-defect --im-min -1e308 --im-max 1e308",
    "scan --kind omega --b 70 --points -5",
    "scan --kind xi-defect --re-points -1",
    "scan --kind omega --b 70 --points 0",
    # the benchmark's bridge region, Re s in (0.6, 0.8), Im s in (0.5, 3.5)
    "coeff a --s 0.7+2.5i --variant five",
    "coeff angular --s 0.7+2.5i",
    "coeff b1 --s 0.7+2.5i",
)


def digest(argv: list[str]) -> tuple[str, int, str]:
    """sha256 of the stdout of ``main(argv)``, its exit code and the stdout."""
    from toruszeta.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # the command line is rejected
            code = exc.code
    text = out.getvalue()
    return hashlib.sha256(text.encode()).hexdigest(), code, text


def read_listing(path: str) -> dict:
    """{argv: (exit code, stdout lines)} of a ``--raw`` listing."""
    out, lines = {}, None
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("    "):
                lines.append(line[4:])
            else:
                _, code, argv = line.split(" ", 2)
                lines = []
                out[argv] = (int(code), lines)
    return out


def _rows(argv: str, lines: list) -> list:
    """The records of one command's stdout, CSV or JSON, as dicts."""
    words = shlex.split(argv)
    if "--format=json" in words or "--format" in words \
            and words[words.index("--format") + 1] == "json":
        text = "\n".join(lines)
        # output cut short by an error exit lacks the closing bracket
        for candidate in (text, text + "\n]"):
            try:
                return json.loads(candidate)
            except ValueError:
                continue
        return []
    return list(csv.DictReader(lines))


_FLOAT = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(rf"^({_FLOAT})\+?({_FLOAT})i$")


def _number(text: str):
    """A float or a ``re+imi`` complex cell, or None for any other text."""
    try:
        return float(text)
    except ValueError:
        m = _COMPLEX.match(text)
        return complex(float(m[1]), float(m[2])) if m else None


def _numbers(row: dict) -> dict:
    """The numbers of one record: its s, value, err_est and meta entries."""
    out = {"value": complex(float(row["value_re"]), float(row["value_im"]))}
    if row["s_re"]:
        out["s"] = complex(float(row["s_re"]), float(row["s_im"]))
    if row["err_est"]:
        out["err_est"] = float(row["err_est"])
    for item in filter(None, row["meta"].split(";")):
        key, text = item.split("=", 1)
        number = _number(text)
        out["meta", key] = text if number is None else number
    return out


def _diff(a, b) -> tuple[float, float]:
    """(relative, absolute) difference; relative to the larger modulus."""
    d = abs(a - b)
    scale = max(abs(a), abs(b))
    return (d / scale if scale else 0.0), d


def differences(before: dict, after: dict) -> dict:
    """{argv: what differs} for every command of two listings.

    A command in only one listing maps to the side it is in, "BEFORE" or
    "AFTER".  Any other maps to a dict: ``exit`` and ``rows``, the exit
    codes and row counts (before, after); ``text``, the number of paired
    rows whose columns, quantity or ``n`` differ, plus the text cells that
    differ; ``numbers``, {(quantity, column): [relative, absolute]}, the
    largest differences of each number column of each quantity, the column
    "s", "value", "err_est" or ("meta", key).
    """
    out = {}
    for argv in list(before) + [a for a in after if a not in before]:
        if argv not in before or argv not in after:
            out[argv] = "BEFORE" if argv in before else "AFTER"
            continue
        (code_b, lines_b), (code_a, lines_a) = before[argv], after[argv]
        rows_b, rows_a = _rows(argv, lines_b), _rows(argv, lines_a)
        numbers, text = {}, 0
        for rb, ra in zip(rows_b, rows_a):
            nb, na = _numbers(rb), _numbers(ra)
            text += (rb.keys() != ra.keys() or nb.keys() != na.keys()
                     or (rb["quantity"], rb["n"]) != (ra["quantity"], ra["n"]))
            for key in nb.keys() & na.keys():
                if isinstance(nb[key], str) or isinstance(na[key], str):
                    text += nb[key] != na[key]
                    continue
                worst = numbers.setdefault((rb["quantity"], key), [0.0, 0.0])
                for i, d in enumerate(_diff(nb[key], na[key])):
                    worst[i] = max(worst[i], d)
        out[argv] = {"exit": (code_b, code_a),
                     "rows": (len(rows_b), len(rows_a)),
                     "text": text, "numbers": numbers}
    return out


def compare(before: dict, after: dict) -> int:
    """Print the per-command differences of two listings; 1 if an exit
    code or a row count differs, or a command is in only one of them.
    Per command it prints the largest differences of the values, of
    ``err_est`` and of the numbers in ``meta``, over all quantities."""
    bad = 0
    diffs = differences(before, after)
    for argv, d in diffs.items():
        if isinstance(d, str):
            print(f"only in {d}: {argv}")
            bad += 1
            continue
        worst = {"value": [0.0, 0.0], "err_est": [0.0, 0.0],
                 "meta": [0.0, 0.0]}
        seen = set()
        for (_, key), diff in d["numbers"].items():
            group = key if isinstance(key, str) else "meta"
            if group in worst:
                seen.add(group)
                worst[group] = [max(w, x) for w, x in zip(worst[group], diff)]
        (code_b, code_a), (n_b, n_a) = d["exit"], d["rows"]
        mismatch = code_b != code_a or n_b != n_a
        bad += mismatch
        parts = [f"exit {code_b}->{code_a}", f"rows {n_b}->{n_a}"]
        parts += [f"{g} rel {worst[g][0]:.2g} abs {worst[g][1]:.2g}"
                  if g in seen else f"{g} -" for g in worst]
        if d["text"]:
            parts.append(f"{d['text']} rows with other text")
        flag = "MISMATCH " if mismatch else ""
        print(f"{flag}{argv}: " + ", ".join(parts))
    print(f"{bad} of {len(diffs)} commands differ in "
          "exit code, row count or presence")
    return 1 if bad else 0


if __name__ == "__main__":
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--raw", action="store_true",
                   help="print each command's stdout under its digest line")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                   help="compare two --raw listings instead of running")
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*map(read_listing, args.compare)))
    import toruszeta
    raw = args.raw
    print(f"toruszeta from {toruszeta.__file__}", file=sys.stderr)
    for line in COMMANDS:
        sha, code, text = digest(shlex.split(line))
        print(f"{sha} {code} {line}")
        if raw:
            for out_line in text.splitlines():
                print(f"    {out_line}")
