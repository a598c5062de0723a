"""tools/mutants.py: a known mutant is killed, a harmless one survives, and
a stale entry fails before any test runs.  The full run is the tool's."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "mutants.py")
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_entry_matches_the_code_once_and_names_its_tests():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 8
    for mutant in mutants.MUTANTS:
        mutants.check(mutant)
        assert mutant.old != mutant.new and mutant.tests, mutant.name
        for node in mutant.tests:
            path, _, test = node.partition("::")
            with open(os.path.join(mutants.ROOT, path)) as fh:
                assert f"def {test}(" in fh.read(), node


def test_a_known_mutant_is_killed_and_a_harmless_one_survives():
    (mutant,) = [m for m in mutants.MUTANTS
                 if m.name == "n-list-order-unchecked"]
    assert mutants.run(mutant)
    same = "if any(a >= b for a, b in zip(n_list, n_list[1:])):"
    assert not mutants.run(mutant._replace(new=same))


def test_a_stale_entry_fails_before_any_test_runs(monkeypatch):
    def no_run(*args):
        raise AssertionError("pytest ran")

    monkeypatch.setattr(mutants, "_pytest", no_run)
    stale = mutants.MUTANTS[0]._replace(name="stale", old="no such text")
    with pytest.raises(mutants.StaleMutant, match="stale: .* occurs 0 times"):
        mutants.run(stale)
    monkeypatch.setattr(mutants, "MUTANTS", mutants.MUTANTS + (stale,))
    assert mutants.main() == 2
