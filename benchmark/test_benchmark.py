"""Tests of the benchmark itself (smoke sizes; about a minute).

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import run
import workloads
from spans import NAMES, layer_stats

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("benchmark", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_benchmark_json_matches_run():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {k: (unit, better) for k, (unit, better, _) in run.PER_LAYER.items()}
    per_layer[run.OVERHEAD[0]] = run.OVERHEAD[1:]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_jobs_depend_on_seed_but_not_sizes(name):
    a, b = workloads.build(name, 3), workloads.build(name, 3)
    c = workloads.build(name, 4)
    assert a == b and a != c
    assert [j.label for j in a] == [j.label for j in c]
    for ja, jc in zip(a, c):
        sizes = [x for x in ja.argv if x.isdigit()]
        assert sizes == [x for x in jc.argv if x.isdigit()]


def test_layer_stats_counts_recursion_once():
    i = NAMES.index
    spans = [
        [i("cli.main"), 0.0, 10.0, -1, 0],
        [i("special.complex_gamma"), 1.0, 5.0, 0, 0],
        [i("special.complex_gamma"), 2.0, 4.0, 1, 0],   # reflection
        [i("summation.pairwise_sum"), 6.0, 9.0, 0, 7],
    ]
    st = layer_stats(spans)
    assert st["special.complex_gamma"] == {"calls": 2, "s": 4.0, "self_s": 4.0, "work": 0}
    assert st["summation.pairwise_sum"]["work"] == 7
    assert st["cli.main"]["self_s"] == 3.0
    assert st["lattice.spectral_zeta"]["calls"] == 0


def test_missing_function_warns_and_counts_zero():
    code = ("import sys; sys.path[:0] = [%r, %r]\n"
            "import toruszeta.cli, spans\n"
            "spans.TRACED += (('lattice', 'removed_helper'),)\n"
            "t = spans.Tracer(); t.install(); print(t.missing)\n"
            "sys.exit(toruszeta.cli.main(['zeta', '--n', '8', '--s', '0.5']))"
            % (BENCH, SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0
    assert "['lattice.removed_helper']" in proc.stdout
    assert "warning: traced function lattice.removed_helper" in proc.stderr


def _perturb(stdout: str, quantity: str, factor=1 + 1e-9) -> str:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        if row["quantity"] == quantity:
            for key in ("value_re", "value_im"):
                row[key] = format(float(row[key]) * factor, ".17g")
        writer.writerow(row)
    return out.getvalue()


# the quantity each job kind reports that its check compares with a reference
PERTURBED = {"zeta_": "zeta_discrete", "zeta1d": "zeta_circle",
             "epstein": "epstein_direct", "coeff_a_": "coeff_a",
             "coeff_b1": "coeff_b1", "coeff_angular": "angular_sum",
             "omega_ratio": "omega_ratio"}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_checker_accepts_outputs_and_rejects_1e9_perturbation(name):
    jobs = workloads.build(name, 7, smoke=True)
    refs = [checks.reference(job) for job in jobs]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    runs = run.run_pass(jobs, False, SRC, env, time.perf_counter() + 120)
    assert run.pass_problems(jobs, runs, refs) == [[] for _ in jobs]
    outputs = {j.label: checks.parse_rows(r.stdout.decode()) for j, r in zip(jobs, runs)}
    tested = 0
    for i, job in enumerate(jobs):
        quantity = next((q for prefix, q in PERTURBED.items()
                         if job.label.startswith(prefix)), None)
        if quantity is None:
            continue
        bad = _perturb(runs[i].stdout.decode(), quantity)
        assert bad != runs[i].stdout.decode()
        mutated = dict(outputs, **{job.label: checks.parse_rows(bad)})
        assert checks.check(job, 0, refs[i], mutated), job.label
        tested += 1
    assert tested >= 1


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_smoke_run_prints_every_metric(name):
    for trace, expected in (("0", run.END_TO_END),
                            ("1", list(run.PER_LAYER) + [run.OVERHEAD[0]])):
        proc = _bench("--workload", name, "--seed", "2", "--seconds", "1",
                      "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert sorted(result["metrics"]) == sorted(expected)
        if trace == "1":
            m = {k: v["value"] for k, v in result["metrics"].items()}
            assert m["cli.main.s"] > 0
            if name != "bridge":
                assert m["expansion.angular_lattice_sum.calls"] == 0
            if name == "critical_line":
                assert m["lattice.spectral_zeta.calls"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bridge", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
