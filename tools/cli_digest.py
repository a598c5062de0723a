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
last digits can be measured value by value, not only detected.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys

from toruszeta.cli import main

COMMANDS = (
    # README examples
    "zeta --n 256 --variant nine --s 0.3+2.0i",
    "zeta1d --n 512 --s 0.25",
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
    # every subcommand, coeff kind, scan kind, route and variant
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
    "scan --kind hn --s 0.3+2i --n-list 32,64",
    "scan --kind zeros --t-min 5 --t-max 5",
    "emcheck --m 2 --n 6 --fn square",
    # global flags
    "--format json scan --kind xi-defect --re-points 3 --im-points 2",
    "--format json expansion --s 0.3+2i --variant nine --n-list 32,64,128",
    "--tol 1e-8 coeff a --s 0.5 --variant nine",
    "--strict scan --kind omega --b 70 --points 11",
    # error exits: usage (2, from the library and from argparse), noise floor (3)
    "--strict expansion --s 1.5+1i --variant nine --n-list 32,64,128",
    "zeta --n 1 --variant five --s 1",
    "scan --kind nope",
    "scan --kind zeros --t-min 1 --t-max 20 --step -0.1",
    "--tol 1e-4 expansion --s 0.3+2i --variant nine --n-list 64,128,256 --orders 1",
)


def digest(argv: list[str]) -> tuple[str, int, str]:
    """sha256 of the stdout of ``main(argv)``, its exit code and the stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    text = out.getvalue()
    return hashlib.sha256(text.encode()).hexdigest(), code, text


if __name__ == "__main__":
    import argparse

    import toruszeta
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--raw", action="store_true",
                   help="print each command's stdout under its digest line")
    raw = p.parse_args().raw
    print(f"toruszeta from {toruszeta.__file__}", file=sys.stderr)
    for line in COMMANDS:
        sha, code, text = digest(shlex.split(line))
        print(f"{sha} {code} {line}")
        if raw:
            for out_line in text.splitlines():
                print(f"    {out_line}")
