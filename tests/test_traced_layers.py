"""benchmark/spans.py traces the names the CLI's jobs call: run in process
under its Tracer, the critical-line scans record calls of every function of
s they reach."""

import importlib.util
import os
import sys

import pytest

import toruszeta.cli as cli

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark",
                     "spans.py")
_spec = importlib.util.spec_from_file_location("spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.fixture
def tracer():
    """A Tracer installed over the package's module bindings, which are put
    back afterwards."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and name.split(".")[0] == "toruszeta"]
    saved = {m: dict(vars(m)) for m in modules}
    traced = spans.Tracer()
    traced.install()
    try:
        yield traced
    finally:
        for module, attrs in saved.items():
            for name, value in attrs.items():
                if vars(module).get(name) is not value:
                    setattr(module, name, value)


def test_the_scans_record_every_traced_function_of_s(tracer, capsys):
    for line in ("scan --kind zeros --t-min 1 --t-max 20",
                 "scan --kind xi-defect --re-points 3 --im-points 2",
                 "scan --kind omega --b 70 --points 5"):
        assert tracer.call_main(cli.main, line.split()) == 0
    capsys.readouterr()
    assert tracer.missing == []
    stats = spans.layer_stats(tracer.spans)
    for name in ("special.riemann_zeta", "special.dirichlet_beta",
                 "special.complex_log_gamma", "special.complex_gamma",
                 "epstein.epstein_zeta_2d", "epstein.complete_xi",
                 "conjecture.omega_ratio"):
        assert stats[name]["calls"] >= 1, name
