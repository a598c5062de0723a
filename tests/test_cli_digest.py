"""tools/cli_digest.py: the golden listing of the CLI's output, and
--compare, the tolerance gate between two listings."""

import subprocess
import sys

import pytest

from _cli_digest import TOOL, cli_digest, golden, listing_now

HEADER = "quantity,s_re,s_im,n,value_re,value_im,err_est,meta"


def _listing(path, commands):
    """Write a --raw listing: {argv: (exit code, CSV or JSON lines)}."""
    with open(path, "w") as fh:
        for argv, (code, lines) in commands.items():
            fh.write(f"{'0' * 64} {code} {argv}\n")
            fh.writelines(f"    {line}\n" for line in lines)
    return str(path)


def _compare(tmp_path, before, after):
    proc = subprocess.run(
        [sys.executable, TOOL, "--compare",
         _listing(tmp_path / "before.txt", before),
         _listing(tmp_path / "after.txt", after)],
        capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def test_compare_reports_value_differences_and_gates_on_shape(tmp_path):
    row = "xi,0.3,5,,{},0,,fe_defect={};leading=1.5+-2e-05i"
    json_rows = ['[', ' {"err_est": "", "meta": "", "n": "", '
                 '"quantity": "xi_defect", "s_im": "1", "s_re": "0.1", '
                 '"value_im": "0", "value_re": "%s"}', ']']
    before = {"xi --s 0.3+5i": (0, [HEADER, row.format("2.0", "1e-16")]),
              "--format json scan --kind xi-defect":
                  (0, [json_rows[0], json_rows[1] % "1e-15", json_rows[2]]),
              "scan --kind nope": (2, [])}
    after = {"xi --s 0.3+5i":
                 (0, [HEADER, row.format("2.0000000000002", "3e-16")]),
             "--format json scan --kind xi-defect":
                 (0, [json_rows[0], json_rows[1] % "2e-15", json_rows[2]]),
             "scan --kind nope": (2, [])}
    code, out = _compare(tmp_path, before, after)
    assert code == 0, out
    lines = out.splitlines()
    assert "xi --s 0.3+5i: exit 0->0, rows 1->1, value rel 1e-13" in lines[0]
    assert "meta rel 0.67 abs 2e-16" in lines[0]
    assert "value rel 0.5 abs 1e-15" in lines[1]
    assert lines[-1].startswith("0 of 3 commands differ")

    after["scan --kind nope"] = (0, [HEADER])
    code, out = _compare(tmp_path, before, after)
    assert code == 1
    assert "MISMATCH scan --kind nope: exit 2->0, rows 0->0" in out
    after["scan --kind nope"] = (2, [])
    after["xi --s 3"] = (0, [HEADER])
    code, out = _compare(tmp_path, before, after)
    assert code == 1
    assert "only in AFTER: xi --s 3" in out


def test_differences_gives_each_quantity_and_column():
    row = "{q},0.3,{im},{n},2.0,0,{err},leading={lead};route=omega1"
    before = {"xi": (0, [HEADER, row.format(q="xi", im=5, n="", err="1e-9",
                                            lead="1.5+-2e-05i")]),
              "hn": (3, [HEADER, row.format(q="hn", im=5, n=32, err="",
                                            lead="1")])}
    after = {"xi": (0, [HEADER, row.format(q="xi", im=5.5, n="", err="4e-9",
                                           lead="1.5+-2e-05i")]),
             "hn": (3, [HEADER, row.format(q="hn", im=5, n=64, err="",
                                           lead="x"),
                        row.format(q="hn", im=5, n=64, err="", lead="1")])}
    d = cli_digest.differences(before, after)
    assert d["xi"]["exit"] == (0, 0) and d["xi"]["rows"] == (1, 1)
    assert d["xi"]["text"] == 0
    numbers = d["xi"]["numbers"]
    assert numbers["xi", "value"] == [0.0, 0.0]
    assert numbers["xi", ("meta", "leading")] == [0.0, 0.0]
    assert numbers["xi", "err_est"] == pytest.approx([0.75, 3e-9])
    rel, absolute = numbers["xi", "s"]
    assert absolute == pytest.approx(0.5)
    assert rel == pytest.approx(0.5 / abs(0.3 + 5.5j))
    # n is compared as text, and so is a meta cell that is no number;
    # rows past the shorter listing are only counted
    assert d["hn"] == {"exit": (3, 3), "rows": (1, 2), "text": 2,
                       "numbers": {("hn", "value"): [0.0, 0.0],
                                   ("hn", "s"): [0.0, 0.0]}}


def test_differences_names_the_listing_a_command_is_only_in():
    rows = (0, [HEADER])
    d = cli_digest.differences({"a": rows, "b": rows}, {"b": rows, "c": rows})
    assert list(d) == ["a", "b", "c"]
    assert d["a"] == "BEFORE" and d["c"] == "AFTER"
    assert d["b"] == {"exit": (0, 0), "rows": (0, 0), "text": 0,
                      "numbers": {}}


# Bounds on how far a number in the CLI's output may move from the golden
# listing.  Each bound is a few times the largest change seen when every
# NumPy and math exp, log, sin, cos, expm1 and log1p result and every np.sum,
# np.dot, np.mean and np.cumsum result was moved by up to 4 ulp (eps times
# an integer in [-4, 4], a fixed function of the argument, so that
# f(conj z) = conj f(z) still holds), as a different libm, SIMD or BLAS
# build may; worst of ten such runs in the comments.  Relative bounds are
# to the larger modulus; absolute ones are for residuals, numbers that are
# rounding noise around zero.
REL = 2e-11  # any other number: 5.4e-12 (omega_ratio at 0.5+800i)
BOUNDS = {
    # H_n(1-s)/H_n(s), each H_n a difference of spectral sums: 5.3e-11
    ("hn_ratio", "value"): ("rel", 2e-10),
    # past Re s = 1 the leading coefficient's panels stop on the roundoff
    # floor; the value is good to its err_est (~1e-6 relative): 9.2e-8
    ("coeff_a", "value"): ("rel", 5e-7),
    # and there the estimate is mostly that floor: 0.12
    ("coeff_a", "err_est"): ("rel", 0.5),
    # |full - half-order rule|, a difference of two near-equal sums: 7.9e-4
    ("angular_sum", "err_est"): ("rel", 5e-3),
    # a log-log slope through residuals down to 6e-9: 1.6e-3
    ("expansion_slope", "value"): ("rel", 1e-2),
    # zeta(Delta_n, s) less its expansion, from terms of order one: 9.4e-11
    ("expansion_residual", "value"): ("abs", 5e-10),
    # (ratio - 1) n^2, the ratio's rounding times n^2 <= 65536: 3.5e-6
    ("hn_ratio_defect_n2", "value"): ("abs", 2e-5),
    # |xi_2(s) - xi_2(1 - s)|, the functional equation's residual: 4.9e-13
    ("xi_defect", "value"): ("abs", 2e-12),
    # the same residual at one point, relative to |xi_2(s)|: 6.2e-15
    ("xi", "fe_defect"): ("abs", 3e-14),
    # |Z(t)| at the polished root, a root residual near 1e-12: 3.5e-12
    ("zero", "err_est"): ("abs", 2e-11),
    # the Euler-Maclaurin sides' difference, each side at most 91: 4.3e-14
    ("em_diff", "value"): ("abs", 2e-13),
}


def test_every_bound_names_a_column_of_the_golden_listing():
    # a bound on a column the CLI no longer writes would guard nothing
    listing = golden()
    columns = {(quantity, key if isinstance(key, str) else key[1])
               for d in cli_digest.differences(listing, listing).values()
               for quantity, key in d["numbers"]}
    assert set(BOUNDS) <= columns, set(BOUNDS) - columns


def test_cli_output_matches_the_golden_listing():
    # exit codes, row and line counts, headers and text cells exactly;
    # every number within its bound above
    before, after = golden(), listing_now()
    bad = []
    for argv, d in cli_digest.differences(before, after).items():
        if isinstance(d, str):
            bad.append(f"only in {d}: {argv}")
            continue
        if d["exit"][0] != d["exit"][1] or d["rows"][0] != d["rows"][1] \
                or len(before[argv][1]) != len(after[argv][1]) or d["text"]:
            bad.append(f"{argv}: exit {d['exit']}, rows {d['rows']}, "
                       f"{d['text']} rows with other text")
        for (quantity, key), (rel, absolute) in d["numbers"].items():
            column = key if isinstance(key, str) else key[1]
            kind, bound = BOUNDS.get((quantity, column), ("rel", REL))
            moved = rel if kind == "rel" else absolute
            if moved > bound:
                bad.append(f"{argv}: {quantity} {column} moved {kind} "
                           f"{moved:.2g} > {bound:.0e}")
    assert not bad, "\n".join(bad)
