"""Mutation checks: each entry breaks the code on purpose, and names the
tests that must catch it.

For each entry, a copy of the repository's ``src/``, ``tests/``, ``tools/``
and ``benchmark/`` is made in a temporary directory; the entry's exact old
text, which must occur exactly once in its file, is replaced by the new
text there, and the entry's tests run in the copy.  The entry is
``killed`` when a test fails and ``survived`` when all pass.  An entry
whose old text no longer occurs exactly once is stale: the run stops
before any test with exit 2, so the list stays current with the code.  Any
other pytest outcome than pass or fail (a node id that names no test, a
collection error) raises, since it would otherwise pass for a kill.

Before the mutants, the tests of all entries run once on an unmutated
copy, which must pass.

    python tools/mutants.py

Exit 0 when every entry is killed, 1 when one survives.  A change that
rewrites a kernel adds its mutants here, instead of describing them in
prose.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
COPIED = ("src", "tests", "tools", "benchmark", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str        # relative to the repository root
    old: str         # occurs exactly once in the file
    new: str
    tests: tuple     # pytest node ids, relative to the repository root


class StaleMutant(Exception):
    """The old text of an entry does not occur exactly once in its file."""


_GOLDEN = ("tests/test_cli_digest.py::"
           "test_cli_output_matches_the_golden_listing")
_WRITER = ("tests/test_cli.py::"
           "test_each_distinct_number_is_formatted_once_with_the_cells_bytes")
_WEIGHTS = ("tests/test_special.py::"
            "test_borwein_weights_match_the_former_loop_bit_for_bit")
_BOUNDED = ("tests/test_special.py::"
            "test_a_sweep_past_the_one_pass_orders_holds_a_bounded_memo")
_DENSE = ("tests/test_epstein.py::"
          "test_gram_scan_matches_the_dense_reference_on_1_100")

MUTANTS = (
    # the Euler-Maclaurin remainder kernel B_(2M+1) needs 2M+1 <= 64
    Mutant("em-m-bound-one-too-high", "src/toruszeta/expansion.py",
           "top = (_BERNOULLI_MAX - 1) // 2\n",
           "top = (_BERNOULLI_MAX - 1) // 2 + 1\n",
           ("tests/test_expansion.py::test_em_verify_runge",)),
    Mutant("convergence-error-exits-4", "src/toruszeta/cli.py",
           "        return 3\n", "        return 4\n",
           ("tests/test_cli.py::test_expansion_signal_lost_exit_code",)),
    Mutant("angular-k1-range-60", "src/toruszeta/expansion.py",
           "_ANGULAR_KMAX = 64", "_ANGULAR_KMAX = 60", (_GOLDEN,)),
    Mutant("series-order-minus-30", "src/toruszeta/special.py",
           "np.maximum(24, n.astype(int) + 4)",
           "np.maximum(24, n.astype(int) - 30)", (_GOLDEN,)),
    Mutant("near-zero-inverted", "src/toruszeta/cli.py",
           '{"near_zero": str(fallback is not None).lower()}',
           '{"near_zero": str(fallback is None).lower()}', (_GOLDEN,)),
    Mutant("n-list-order-unchecked", "src/toruszeta/expansion.py",
           "if any(b <= a for a, b in zip(n_list, n_list[1:])):",
           "if False:",
           ("tests/test_expansion.py::"
            "test_residual_order_rejects_an_unordered_n_list_before_any_work",)),
    Mutant("inner-power-through-sqrt", "src/toruszeta/expansion.py",
           "    y **= -1.5\n", "    y = 1.0 / (y * np.sqrt(y))\n",
           ("tests/test_expansion.py::"
            "test_inner_j_in_place_keeps_the_bits_at_every_panel_depth",)),
    Mutant("kahan-compensation-reassociated", "src/toruszeta/summation.py",
           "        np.subtract(t, s, out=c)\n        c -= y\n",
           "        np.subtract(t, y, out=c)\n        c -= s\n",
           ("tests/test_summation.py::"
            "test_streamed_reducer_matches_the_padded_copy_bit_for_bit",)),
    Mutant("xi-fold-keyed-on-re-alone", "src/toruszeta/epstein.py",
           "new[1:] = (re_bits[1:] != re_bits[:-1]) | "
           "(im_bits[1:] != im_bits[:-1])",
           "new[1:] = re_bits[1:] != re_bits[:-1]",
           ("tests/test_epstein.py::"
            "test_xi_batches_fold_to_one_evaluation_per_point",)),
    Mutant("out-file-not-closed", "src/toruszeta/cli.py",
           "    finally:\n        writer.close(finish=False)\n",
           "    finally:\n        pass\n",
           ("tests/test_cli.py::test_the_out_file_is_closed_on_every_exit",)),
    Mutant("no-prefix-before-a-non-finite-row", "src/toruszeta/cli.py",
           "else int(np.argmin(finite))", "else 0",
           ("tests/test_cli.py::"
            "test_a_columnar_record_writes_the_bytes_of_its_rows",)),
    Mutant("omega-scan-b-unchecked", "src/toruszeta/cli.py",
           '        _require_finite(args, "b")\n', "",
           ("tests/test_cli.py::"
            "test_non_finite_scan_bounds_exit_2_naming_the_option",)),
    Mutant("slice-buffers-short-of-a-leaf-row", "src/toruszeta/lattice.py",
           "width = min(size, _leaf_layout(size)[2])",
           "width = min(size, 2 ** 14)",
           ("tests/test_lattice.py::"
            "test_spectral_zeta_keeps_its_bits_when_a_leaf_row_outgrows_a_slice",)),
    Mutant("fold-diagonal-weight-doubled", "src/toruszeta/lattice.py",
           "if st >= a]] *= 0.5", "if st >= a]] *= 1.0",
           ("tests/test_lattice.py::"
            "test_streamed_fold_matches_the_index_fold",)),
    Mutant("fold-row-offset-off-by-one-mid-row", "src/toruszeta/lattice.py",
           "runs = [(r + lo - st, hi - lo)",
           "runs = [(r + lo - st + (lo == a > st >= 0), hi - lo)",
           ("tests/test_lattice.py::"
            "test_streamed_pass_is_the_index_fold_and_the_reducer",)),
    Mutant("nyquist-weight-two", "src/toruszeta/lattice.py",
           "        mult[half] = 1.0\n", "        mult[half] = 2.0\n",
           ("tests/test_lattice.py::test_fold_multiplicities",)),
    Mutant("hn-pair-swapped", "src/toruszeta/conjecture.py",
           "for n, (num, den) in zip(", "for n, (den, num) in zip(",
           ("tests/test_conjecture.py::"
            "test_hn_ratio_study_is_the_ratio_of_the_scalar_h_values",)),
    Mutant("hn-leading-coeff-of-the-first-point", "src/toruszeta/expansion.py",
           "leading_coeff(p, StencilVariant.NINE_POINT, tol).value for p in",
           "leading_coeff(pts[0], StencilVariant.NINE_POINT, tol).value for p in",
           ("tests/test_expansion.py::"
            "test_h_function_over_an_array_gives_each_point_its_scalar_bits",)),
    Mutant("b1-subtracted-at-order-zero", "src/toruszeta/expansion.py",
           "b1term = v2 * b1 if orders_included >= 1 else 0j",
           "b1term = v2 * b1",
           ("tests/test_expansion.py::test_residual_order_nine_point",)),
    Mutant("coeff-b1-memoized-on-s", "src/toruszeta/expansion.py",
           "\ndef coeff_b1(s: complex)",
           "\n@lru_cache(maxsize=64)\ndef coeff_b1(s: complex)",
           ("tests/test_exports.py::"
            "test_the_only_memos_are_the_table_builders",)),
    Mutant("descriptor-slot-unchecked", "src/toruszeta/quadrature.py",
           "if d is not None and d.location is not location:",
           "if False:",
           ("tests/test_quadrature.py::"
            "test_a_descriptor_must_sit_in_the_slot_of_its_end",)),
    Mutant("scan-span-unchecked", "src/toruszeta/cli.py",
           "    if not math.isfinite(b - a):\n", "    if False:\n",
           ("tests/test_cli.py::"
            "test_non_finite_points_exit_2_as_a_domain_error",)),
    Mutant("negative-point-count-accepted", "src/toruszeta/cli.py",
           "    if k < 0:\n", "    if False:\n",
           ("tests/test_cli.py::"
            "test_a_negative_point_count_exits_2_and_zero_is_an_empty_scan",)),
    Mutant("scan-point-cap-unchecked", "src/toruszeta/cli.py",
           "    if k > SCAN_MAX_POINTS:\n", "    if False:\n",
           ("tests/test_cli.py::"
            "test_a_scan_past_its_point_cap_exits_2_before_any_output",)),
    Mutant("closed-form-before-the-direct-sum", "src/toruszeta/cli.py",
           "    direct = []\n",
           "    direct = []\n    epstein.epstein_zeta_2d(s)\n",
           ("tests/test_cli.py::"
            "test_a_rejected_direct_sum_exits_2_before_the_series",)),
    # Python's complex division rounds otherwise than NumPy's: the omega2
    # route's quotient of one-point values moves by an ulp, which the
    # golden listing's bounds allow, so the type check kills it
    Mutant("one-point-returns-python-complex", "src/toruszeta/special.py",
           "        return fn(_as_points([s]), *args, **kwargs)[0]\n",
           "        return complex(fn(_as_points([s]), *args, **kwargs)[0])\n",
           ("tests/test_epstein.py::test_one_s_or_an_array_of_s",)),
    Mutant("two-d-input-accepted", "src/toruszeta/special.py",
           "    if values.ndim != 1:\n", "    if values.ndim > 2:\n",
           ("tests/test_epstein.py::test_one_s_or_an_array_of_s",)),
    Mutant("expansion-b0-from-a-second-series-pass", "src/toruszeta/cli.py",
           "    b0 = epstein.v_factor_inv(2, s) * const",
           "    b0 = expansion.coeff_b0(s)",
           ("tests/test_cli.py::"
            "test_an_expansion_job_evaluates_zeta_delta_at_s_and_s_minus_1",)),
    Mutant("zero-scan-bound-unchecked", "src/toruszeta/epstein.py",
           "    if t_max > ZERO_SCAN_MAX_T:\n", "    if False:\n",
           ("tests/test_epstein.py::"
            "test_a_zero_scan_past_its_bound_raises_before_any_work",)),
    # a constant column's number taken from another row of the numbers
    # (another column's first number)
    Mutant("writer-constant-from-the-wrong-row", "src/toruszeta/cli.py",
           'cells[i] = quote + "%.17g" % column[0] + quote',
           'cells[i] = quote + "%.17g" % numbers[0, 0] + quote',
           (_WRITER,)),
    Mutant("writer-distinct-keyed-on-value", "src/toruszeta/cli.py",
           "np.unique(bits, return_inverse=True)",
           "np.unique(column, return_inverse=True)", (_WRITER,)),
    Mutant("one-pass-weights-skip-the-sign-flip", "src/toruszeta/special.py",
           "    w[1::2] = -w[1::2]\n    _WEIGHTS", "    _WEIGHTS",
           (_WEIGHTS,)),
    # past ~403 the unrescaled one pass overflows
    Mutant("rescaled-order-takes-the-one-pass", "src/toruszeta/special.py",
           "_ONE_PASS_MAX = 357", "_ONE_PASS_MAX = 1000", (_WEIGHTS,)),
    Mutant("weights-rebuilt-for-held-orders", "src/toruszeta/special.py",
           "missing := [n for n in orders if n not in _WEIGHTS]",
           "missing := list(orders)",
           ("tests/test_special.py::"
            "test_a_batch_builds_only_the_orders_the_memo_lacks",)),
    # a batch's orders past the first rescale sent to the one pass, whose
    # memo never drops an entry
    Mutant("large-orders-held-batch-wide", "src/toruszeta/special.py",
           "\n                             if m <= _ONE_PASS_MAX])", "])",
           (_BOUNDED,)),
    Mutant("large-orders-held-without-bound", "src/toruszeta/special.py",
           "@lru_cache(maxsize=128)\ndef _order_weights",
           "@lru_cache(maxsize=None)\ndef _order_weights", (_BOUNDED,)),
    # the zeros come factor by factor, zeta's then beta's, as bracketed
    Mutant("zero-rows-by-factor", "src/toruszeta/epstein.py",
           "    order = np.lexsort((beta, roots))\n"
           "    roots, beta = roots[order], beta[order]\n", "",
           (_GOLDEN, _DENSE)),
    Mutant("zero-counts-swapped", "src/toruszeta/epstein.py",
           "dict(zip(FACTORS, found)), dict(zip(FACTORS, expected))",
           "dict(zip(FACTORS[::-1], found)), "
           "dict(zip(FACTORS[::-1], expected))", (_GOLDEN, _DENSE)),
    Mutant("spectral-zeta-one-point-python-complex",
           "src/toruszeta/lattice.py",
           "return total if np.ndim(s) else total[0]",
           "return total if np.ndim(s) else complex(total[0])",
           ("tests/test_epstein.py::test_one_s_or_an_array_of_s",)),
)


def check(mutant: Mutant, root: str = ROOT) -> str:
    """The text of the mutant's file under ``root``; StaleMutant unless its
    old text occurs there exactly once."""
    with open(os.path.join(root, mutant.file)) as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise StaleMutant(f"{mutant.name}: the old text occurs {count} times "
                          f"in {mutant.file}, not once")
    return text


@contextlib.contextmanager
def _copy(root: str):
    """A temporary copy of the parts of ``root`` the tests read."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        for name in COPIED:
            src = os.path.join(root, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(tree, name), ignore=skip)
            else:
                shutil.copy2(src, tree)
        yield tree


def _pytest(tree: str, tests) -> int:
    """pytest's exit code for ``tests`` in ``tree``: 0 passed, 1 failed;
    any other code raises, with pytest's output."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")))
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode} on {tests}:\n"
                           + proc.stdout[-2000:] + proc.stderr[-2000:])
    return proc.returncode


def run(mutant: Mutant, root: str = ROOT) -> bool:
    """True when the mutant's tests fail on a mutated copy of ``root``
    (killed), False when they pass (survived)."""
    text = check(mutant, root)
    with _copy(root) as tree:
        with open(os.path.join(tree, mutant.file), "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        return _pytest(tree, mutant.tests) == 1


def main() -> int:
    try:
        for mutant in MUTANTS:
            check(mutant)
    except StaleMutant as exc:
        print(f"stale entry: {exc}", file=sys.stderr)
        return 2
    tests = dict.fromkeys(t for m in MUTANTS for t in m.tests)
    with _copy(ROOT) as tree:
        if _pytest(tree, tests):
            print("the tests fail on the unmutated code", file=sys.stderr)
            return 2
    survived = 0
    for mutant in MUTANTS:
        killed = run(mutant)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED':<9}{mutant.name}",
              flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
