"""tools/cli_digest.py --compare: the tolerance gate between two listings."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "cli_digest.py")
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
