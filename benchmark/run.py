"""toruszeta benchmark: CLI workloads timed end to end and layer by layer.

    python3 benchmark/run.py --workload bridge --seed 1 --seconds 35 --trace 0

Run from the repository root.  One client runs the workload's jobs one at a
time, each in a fresh interpreter through ``toruszeta.cli.main(argv)``
(closed loop), and repeats whole passes over the job list until another
pass would overrun ``--seconds``.  Every job's output is checked against a
reference computed before timing starts.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: end-to-end metrics.  Each job's time (and max-RSS) is its
  best over the passes of the run: on a small shared machine, co-tenant
  load stretches single passes by up to 40 %, and the best of several
  passes tracks the program's own cost more steadily than their median.
  Taking the best also keeps the metrics independent of how many passes
  fit in the run.
* ``--trace 1``: per-layer metrics from spans recorded around the traced
  functions (``spans.py``), median over traced passes, and the tracing
  overhead against untraced passes interleaved with them.  A traced job
  must print the same stdout bytes as the untraced one.

``--smoke`` shrinks every size so a run takes seconds (for the
benchmark's own tests); its numbers are not comparable with full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads
from child import REPORT_PREFIX
from spans import layer_stats

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# matmul in the expansion layer goes through OpenBLAS; one thread keeps the
# closed loop on one core of a small shared machine
BLAS_THREADS = 1
# every run, its last job included, must end within 180 s
RUN_DEADLINE_S = 170
WARMUP_ARGV = ("xi", "--s", "0.3+5i")

END_TO_END = {
    "wall_s": "s",        # sum over jobs of process start to exit
    "compute_s": "s",     # sum over jobs of the time inside cli.main
    "setup_s": "s",       # median over jobs of importing toruszeta.cli
    "job_max_s": "s",     # time inside cli.main of the slowest job
    "peak_rss_mb": "MB",  # largest max-RSS of any job
}


def _calls(fn):
    return lambda st: st[fn]["calls"]


def _secs(fn):
    return lambda st: st[fn]["s"]


def _self_s(fn):
    return lambda st: st[fn]["self_s"]


def _work(fn):
    return lambda st: st[fn]["work"]


def _per_call_us(fn):
    return lambda st: 1e6 * st[fn]["s"] / st[fn]["calls"] if st[fn]["calls"] else 0.0


# name: (unit, better, value from the summed layer_stats of one pass)
PER_LAYER = {
    "cli.main.s": ("s", "lower", _secs("cli.main")),
    "cli.self_s": ("s", "lower", _self_s("cli.main")),
    "lattice.spectral_zeta.calls": ("count", "lower", _calls("lattice.spectral_zeta")),
    "lattice.spectral_zeta.s": ("s", "lower", _secs("lattice.spectral_zeta")),
    "lattice.spectral_zeta.self_s": ("s", "lower", _self_s("lattice.spectral_zeta")),
    "lattice.eigenvalue_grid.calls": ("count", "lower", _calls("lattice.eigenvalue_grid")),
    "lattice.eigenvalue_grid.s": ("s", "lower", _secs("lattice.eigenvalue_grid")),
    "lattice.eigs": ("count", "lower", _work("lattice.spectral_zeta")),
    "lattice.eigs_per_s": (
        "1/s", "higher",
        lambda st: (st["lattice.spectral_zeta"]["work"] / st["lattice.spectral_zeta"]["s"]
                    if st["lattice.spectral_zeta"]["s"] else 0.0)),
    "lattice.spectral_zeta_1d.s": ("s", "lower", _secs("lattice.spectral_zeta_1d")),
    "summation.pairwise_sum.calls": ("count", "lower", _calls("summation.pairwise_sum")),
    "summation.pairwise_sum.s": ("s", "lower", _secs("summation.pairwise_sum")),
    "summation.pairwise_sum.elems": ("count", "lower", _work("summation.pairwise_sum")),
    "expansion.angular_lattice_sum.calls": (
        "count", "lower", _calls("expansion.angular_lattice_sum")),
    "expansion.angular_lattice_sum.s": ("s", "lower", _secs("expansion.angular_lattice_sum")),
    "expansion.coeff_b1.calls": ("count", "lower", _calls("expansion.coeff_b1")),
    "expansion.leading_coeff.calls": ("count", "lower", _calls("expansion.leading_coeff")),
    "expansion.leading_coeff.s": ("s", "lower", _secs("expansion.leading_coeff")),
    "expansion.h_function.calls": ("count", "lower", _calls("expansion.h_function")),
    "expansion.h_function.s": ("s", "lower", _secs("expansion.h_function")),
    "expansion.residual_order.s": ("s", "lower", _secs("expansion.residual_order")),
    "epstein.find_critical_zeros.s": ("s", "lower", _secs("epstein.find_critical_zeros")),
    "epstein.hardy_z.calls": (
        "count", "lower",
        lambda st: st["epstein.hardy_z_riemann"]["calls"] + st["epstein.hardy_z_beta"]["calls"]),
    "epstein.epstein_zeta_2d.calls": ("count", "lower", _calls("epstein.epstein_zeta_2d")),
    "epstein.epstein_zeta_2d.s": ("s", "lower", _secs("epstein.epstein_zeta_2d")),
    "epstein.complete_xi.calls": ("count", "lower", _calls("epstein.complete_xi")),
    "epstein.complete_xi.s": ("s", "lower", _secs("epstein.complete_xi")),
    "epstein.epstein_direct_sum.s": ("s", "lower", _secs("epstein.epstein_direct_sum")),
    "special.riemann_zeta.calls": ("count", "lower", _calls("special.riemann_zeta")),
    "special.riemann_zeta.s": ("s", "lower", _secs("special.riemann_zeta")),
    "special.riemann_zeta.us_per_call": ("us", "lower", _per_call_us("special.riemann_zeta")),
    "special.dirichlet_beta.calls": ("count", "lower", _calls("special.dirichlet_beta")),
    "special.dirichlet_beta.s": ("s", "lower", _secs("special.dirichlet_beta")),
    "special.dirichlet_beta.us_per_call": ("us", "lower", _per_call_us("special.dirichlet_beta")),
    "special.complex_gamma.calls": ("count", "lower", _calls("special.complex_gamma")),
    "special.complex_log_gamma.calls": ("count", "lower", _calls("special.complex_log_gamma")),
    "conjecture.omega_ratio.calls": ("count", "lower", _calls("conjecture.omega_ratio")),
    "conjecture.omega_ratio.s": ("s", "lower", _secs("conjecture.omega_ratio")),
    "conjecture.hn_ratio_study.s": ("s", "lower", _secs("conjecture.hn_ratio_study")),
}
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")


class JobRun:
    """Outcome and costs of one child process."""

    def __init__(self, job, trace: bool, src: str, env: dict, deadline: float):
        cmd = [sys.executable, CHILD, src, "1" if trace else "0", "--", *job.argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=env,
                                  timeout=max(1.0, deadline - start))
            stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
        except subprocess.TimeoutExpired as exc:
            stdout, stderr, code = exc.stdout or b"", exc.stderr or b"", -1
        self.wall_s = time.perf_counter() - start
        self.stdout = stdout
        marker = REPORT_PREFIX.encode()
        report = {}
        if marker in stderr:
            stderr, _, tail = stderr.rpartition(marker)
            report = json.loads(tail)
        self.stderr = stderr.decode(errors="replace")
        # a child that dies before reporting counts as failed, even on exit 0
        self.code = report["code"] if report else (code or -1)
        self.setup_s = report.get("setup_s", 0.0)
        self.compute_s = report.get("compute_s", 0.0)
        self.rss_mb = report.get("maxrss_kb", 0) / 1024.0
        self.spans = report.get("spans", [])
        self.missing = report.get("missing", [])


def run_pass(jobs, trace: bool, src: str, env: dict,
             deadline: float) -> list[JobRun]:
    """Run every job once, in order; a job still running at ``deadline``
    (a ``time.perf_counter`` value) is killed and fails."""
    return [JobRun(job, trace, src, env, deadline) for job in jobs]


def pass_problems(jobs, runs, refs, untraced=None) -> list[list[str]]:
    """Problems per job of one pass (checked after the pass, untimed)."""
    outputs, parse_errors = {}, {}
    for job, run in zip(jobs, runs):
        try:
            outputs[job.label] = checks.parse_rows(run.stdout.decode())
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            outputs[job.label] = []
            parse_errors[job.label] = f"unparseable output: {exc}"
    result = []
    for i, (job, run) in enumerate(zip(jobs, runs)):
        problems = checks.check(job, run.code, refs[i], outputs)
        if job.label in parse_errors:
            problems.append(parse_errors[job.label])
        if untraced is not None and run.stdout != untraced[i].stdout:
            problems.append("traced stdout differs from untraced stdout")
        result.append(problems)
    return result


def best(passes, attr: str) -> list[float]:
    """Per job, the smallest ``attr`` seen over the passes of this run."""
    return [min(getattr(runs[i], attr) for runs in passes)
            for i in range(len(passes[0]))]


def end_to_end(passes) -> dict:
    compute = best(passes, "compute_s")
    return {"wall_s": sum(best(passes, "wall_s")),
            "compute_s": sum(compute),
            "setup_s": statistics.median(best(passes, "setup_s")),
            "job_max_s": max(compute),
            "peak_rss_mb": max(best(passes, "rss_mb"))}


def per_layer(traced, untraced) -> dict:
    per_pass = []
    for runs in traced:
        total = layer_stats([])
        for run in runs:
            for fn, row in layer_stats(run.spans).items():
                for key, value in row.items():
                    total[fn][key] += value
        per_pass.append({name: value(total)
                         for name, (_, _, value) in PER_LAYER.items()})
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in PER_LAYER}
    metrics[OVERHEAD[0]] = (sum(best(traced, "compute_s"))
                            / sum(best(untraced, "compute_s")) - 1.0)
    return metrics


def environment(smoke: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "smoke": smoke}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for testing the benchmark itself")
    args = p.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "toruszeta", "cli.py")):
        print(f"error: no toruszeta sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env.pop("PYTHONPATH", None)

    deadline = time.perf_counter() + RUN_DEADLINE_S
    jobs = workloads.build(args.workload, args.seed, args.smoke)
    print("env " + json.dumps(environment(args.smoke), sort_keys=True))
    for job in jobs:
        print(f"job {job.label}: toruszeta {' '.join(job.argv)}")
    refs = [checks.reference(job) for job in jobs]
    warm = JobRun(workloads.Job("warmup", WARMUP_ARGV), False, src, env, deadline)
    if warm.code != 0:
        print(f"error: warm-up job failed (exit {warm.code}):\n{warm.stderr}",
              file=sys.stderr)
        return 1

    modes = (False, True) if args.trace else (False,)
    passes = {mode: [] for mode in modes}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for mode in modes:
            runs = run_pass(jobs, mode, src, env, deadline)
            passes[mode].append(runs)
            untraced = passes[False][-1] if mode else None
            for job, run, problems in zip(
                    jobs, runs, pass_problems(jobs, runs, refs, untraced)):
                attempted += 1
                for name in run.missing:
                    print(f"warning: {name} not traced", file=sys.stderr)
                if problems:
                    failed += 1
                    print(f"FAILED {job.label} (toruszeta {' '.join(job.argv)}):"
                          f" {'; '.join(problems)}\n{run.stderr[-2000:]}",
                          file=sys.stderr)
        elapsed = time.perf_counter() - start
        # stop when one more round of passes would overrun --seconds
        if elapsed * (1 + 1 / len(passes[False])) > args.seconds:
            break

    for i, job in enumerate(jobs):
        runs = [p[i] for p in passes[False]]
        print(f"job_time {job.label}: compute best {min(r.compute_s for r in runs):.4f} s,"
              f" median {statistics.median(r.compute_s for r in runs):.4f} s;"
              f" wall best {min(r.wall_s for r in runs):.4f} s")
    if args.trace:
        values = per_layer(passes[True], passes[False])
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        units[OVERHEAD[0]] = OVERHEAD[1]
    else:
        values = end_to_end(passes[False])
        units = END_TO_END
    print(f"passes {len(passes[False])} untraced"
          + (f", {len(passes[True])} traced" if args.trace else ""))
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
