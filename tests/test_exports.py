"""The export ledger: every name the package re-exports has a user.

``toruszeta/__init__.py`` groups its imports under one comment per kind of
user.  Each group's names must be used where its comment says; a type
stays with a function of its group that takes or returns it.
"""

import ast
import importlib.util
import inspect
import os
import pkgutil
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


def _test_files():
    return [name for name in sorted(os.listdir(os.path.join(ROOT, "tests")))
            if name.startswith("test_") and name.endswith(".py")]


def _test_words():
    return _words("".join(_read("tests", name) for name in _test_files()))


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


# The parameter ledger: every defaulted parameter of an exported callable,
# and who sets it outside that callable's own unit tests: a CLI option
# ("--tol"), an acceptance criterion ("criterion 08"), or a library function
# that passes it ("module.function").  The references and the paper
# statements have tests as their users by design; theirs name the test
# that sets the parameter.
PARAMETERS = {
    "ConvergenceError": {"estimate": "quadrature._graded_panels"},
    "IntegrandSpec": {"descriptor_zero": "criterion 08",
                      "descriptor_infinity": "criterion 08"},
    "PoleError": {"location": "epstein.omega"},
    "ZeroDenominatorError": {"factor": "conjecture.omega_ratio"},
    "complex_gamma": {"log_base": "epstein._pi_pow_gamma"},
    "find_critical_zeros": {"step": "--step", "strict": "--strict"},
    "h_function": {"tol": "conjecture.hn_ratio_study"},
    "hn_ratio_study": {"tol": "--tol"},
    "leading_coeff": {"tol": "--tol"},
    "omega": {"route": "test_omega_dual_formulas"},
    "omega_ratio": {"route": "--route"},
    "quad_periodic_2d": {
        "tol": "test_leading_coeff_inner_reduction_vs_2d_quadrature"},
    "regularized_integral": {
        "tol": "test_zeta_regularized_integral_representation"},
    "residual_order": {"orders_included": "--orders", "tol": "--tol"},
    "spectral_zeta": {"abs_parts": "cli._cmd_zeta"},
}


def _defaulted(obj) -> list:
    # a class counts through its own __init__: enums and the exceptions
    # that only inherit one take no parameters of their own
    if inspect.isclass(obj):
        if "__init__" not in vars(obj):
            return []
        obj = obj.__init__
    return [name for name, p in inspect.signature(obj).parameters.items()
            if p.default is not inspect.Parameter.empty]


def test_the_parameter_ledger_is_every_defaulted_parameter():
    found = {name: _defaulted(obj) for name, obj in vars(toruszeta).items()
             if not name.startswith("_") and callable(obj)}
    assert {name: sorted(params) for name, params in found.items()
            if params} == {name: sorted(params)
                           for name, params in PARAMETERS.items()}


def _test_function(name: str, files) -> str:
    text = "".join(_read("tests", f) for f in files)
    match = re.search(rf"^def {name}\(.*?(?=^\S)", text + "\n#",
                      re.S | re.M)
    assert match, name
    return match.group(0)


@pytest.mark.parametrize("callee, param, user", [
    (callee, param, user) for callee, params in PARAMETERS.items()
    for param, user in params.items()])
def test_every_parameter_of_the_ledger_has_its_user(callee, param, user):
    if user.startswith("--"):
        body = _read("src", "toruszeta", "cli.py")
        assert f'_Opt("{user}"' in body
    elif user.startswith("criterion "):
        body = _test_function(f"test_criterion_{user.split()[1]}_\\w+",
                              ["test_acceptance.py"])
    elif user.startswith("test_"):
        body = _test_function(user, _test_files())
    else:
        module, function = user.split(".")
        body = inspect.getsource(getattr(importlib.import_module(
            f"toruszeta.{module}"), function))
        assert param in _words(body)
    assert callee in _words(body)


# The memo policy: only tables keyed on integers or an enum are memoized,
# never a result keyed on s.
TABLE_BUILDERS = {"quadrature._gl_rule", "expansion._h_moments",
                  "expansion._correction_polys", "special._borwein_weights",
                  "special._sieve_plan", "special._bernoulli_numbers"}


def test_the_only_memos_are_the_table_builders():
    memos = set()
    for info in pkgutil.iter_modules(toruszeta.__path__):
        module = importlib.import_module(f"toruszeta.{info.name}")
        memos |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if hasattr(obj, "cache_info")
                  and obj.__module__ == module.__name__}
    assert memos == TABLE_BUILDERS
