"""The export ledger: every name the package re-exports has a user.

``toruszeta/__init__.py`` groups its imports under one comment per kind of
user.  Each group's names must be used where its comment says; a type
stays with a function of its group that takes or returns it.
"""

import ast
import importlib.util
import inspect
import os
import re
import types

import pytest

import toruszeta

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
INIT = os.path.join(ROOT, "src", "toruszeta", "__init__.py")


def _read(*parts):
    with open(os.path.join(ROOT, *parts)) as fh:
        return fh.read()


def _ledger() -> dict:
    """{first line of a group's comment: the names imported under it}."""
    text = _read("src", "toruszeta", "__init__.py")
    heads, previous = {}, None
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("#") and previous is None:
            heads[number] = line[1:].strip()
        previous = number if line.startswith("#") else None
    groups = {head: [] for head in heads.values()}
    for node in ast.parse(text).body:
        if isinstance(node, ast.ImportFrom):
            head = heads[max(n for n in heads if n < node.lineno)]
            groups[head] += [alias.asname or alias.name for alias in node.names]
    return groups


def _words(text):
    return set(re.findall(r"\w+", text))


def _test_words():
    return _words("".join(_read("tests", name)
                          for name in sorted(os.listdir(os.path.join(ROOT, "tests")))
                          if name.startswith("test_") and name.endswith(".py")))


def _traced():
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(ROOT, "benchmark", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {name for _, name in spans.TRACED}


def _with_their_types(names, used):
    # the used functions, and the types named in their signatures
    found = set()
    for name in names:
        obj = getattr(toruszeta, name)
        if name in used and callable(obj) and not inspect.isclass(obj):
            found |= _words(" ".join(map(str, obj.__annotations__.values())))
    return used | (set(names) & found)


def _raised(names):
    # raised or warned in the library, or the base class of one that is
    library = "".join(_read("src", "toruszeta", name)
                      for name in os.listdir(os.path.join(ROOT, "src", "toruszeta"))
                      if name.endswith(".py") and name != "errors.py")
    direct = {n for n in names if re.search(rf"raise {n}\b|warn\(.*\b{n}\b", library)}
    return direct | {n for n in names
                     if any(issubclass(getattr(toruszeta, d), getattr(toruszeta, n))
                            for d in direct)}


USERS = {
    "called by the CLI": lambda names: _with_their_types(
        names, set(names) & _words(_read("src", "toruszeta", "cli.py"))),
    "raised or warned": _raised,
    "called by an acceptance criterion": lambda names: _with_their_types(
        names, set(names) & _words(_read("tests", "test_acceptance.py"))),
    "traced by benchmark/spans.py": lambda names: set(names) & _traced(),
    "the references that tests compare": lambda names: set(names) & _test_words(),
    "paper statements": lambda names: set(names) & _test_words(),
}


def _group(prefix):
    (names,) = [names for head, names in _ledger().items() if head.startswith(prefix)]
    return names


@pytest.mark.parametrize("kind", list(USERS))
def test_every_name_of_a_ledger_group_has_its_user(kind):
    names = _group(kind)
    assert names
    assert set(names) - USERS[kind](names) == set()


def test_the_ledger_is_every_public_name_once():
    groups = _ledger()
    assert len(groups) == len(USERS)
    for head in groups:
        assert sum(head.startswith(kind) for kind in USERS) == 1, head
    listed = [name for names in groups.values() for name in names]
    assert len(listed) == len(set(listed))
    public = {name for name, obj in vars(toruszeta).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(listed)
