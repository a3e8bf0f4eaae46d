"""Run the checked-in mutants against the tests that must kill them.

Usage: ``python tests/mutants/run.py`` from the repository root.

Each mutant replaces one exact piece of text in one file under ``src/``.
For each, ``src/`` and ``tests/`` are copied to a temporary directory, the
mutant is applied there, and pytest runs the mutant's listed tests with
``-x``.  A ``killed`` mutant must make them fail; an ``equivalent`` one
computes the same results as the code, for the reason given, so its tests
must pass.  The unmutated copy runs every listed test first, so a failure
can only come from a mutant.  Hypothesis runs with a fixed seed, so a
verdict does not depend on the examples one run happens to draw.

Exit status: 0 when every verdict holds, 1 when one does not, 2 when the
unmutated copy fails; a mutant whose text is not found exactly once stops
the run before any test runs.

This file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DYNAMICS = "src/fuzzymaps/dynamics.py"
SUPERMATRIX = "src/fuzzymaps/supermatrix.py"
MODEL_IO = "src/fuzzymaps/model_io.py"
MODELS = "src/fuzzymaps/models.py"
TIMEOUT_S = 120  # a mutant that hangs its tests this long counts as killed


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in ``path``
    new: str
    tests: tuple[str, ...]  # pytest arguments: files or node ids
    verdict: str  # "killed" or "equivalent"
    reason: str


MUTANTS = (
    Mutant(
        "operand-orientation",
        DYNAMICS,
        "    grid = grid if forward else grid.T\n",
        "    grid = grid.T if forward else grid\n",
        ("tests/test_dynamics.py",),
        "killed",
        "every product multiplies by the other side's grid",
    ),
    Mutant(
        "scale-max-not-lcm",
        SUPERMATRIX,
        "scale = math.lcm(*(x.denominator for x in exact))",
        "scale = max(x.denominator for x in exact)",
        ("tests/test_supermatrix.py::TestValidation::"
         "test_scale_is_the_lcm_of_the_decimal_denominators",),
        "killed",
        "entries 0.5 and 0.2 scale by 5, and 0.5 becomes 2: "
        "test_scale_is_the_lcm_of_the_decimal_denominators",
    ),
    Mutant(
        "distinct-values-counted-once",
        SUPERMATRIX,
        "counts = np.diff(starts, append=flat.size).tolist()",
        "counts = [1] * len(starts)",
        ("tests/test_supermatrix.py::TestValidation::"
         "test_each_distinct_value_is_weighed_by_its_count",),
        "killed",
        "a repeated entry adds to the total once, and two copies of 2**52 "
        "pass: test_each_distinct_value_is_weighed_by_its_count",
    ),
    Mutant(
        "float32-up-to-2-24",
        SUPERMATRIX,
        "dtype = np.float32 if total < _F32_EXACT else np.float64",
        "dtype = np.float32 if total <= _F32_EXACT else np.float64",
        ("tests/test_supermatrix.py::TestValidation::"
         "test_float64_from_a_scaled_total_of_2_24",),
        "killed",
        "a scaled total of exactly 2**24 keeps the float32 grid, where a "
        "partial sum of 2**24 + 1 rounds: "
        "test_float64_from_a_scaled_total_of_2_24",
    ),
    Mutant(
        "cutoff-unscaled",
        DYNAMICS,
        "c = Fraction(repr(c)) * scale",
        "c = Fraction(repr(c))",
        ("tests/test_dynamics.py::TestExactProduct::"
         "test_a_near_tie_in_all_six_orders",),
        "killed",
        "scaled sums meet the cutoff as written: a sum of 6 tenths passes "
        "gt 0.6: test_a_near_tie_in_all_six_orders",
    ),
    Mutant(
        "raw-not-divided-by-scale",
        DYNAMICS,
        "raw=tuple(np.divide(raw[0], scale, dtype=float).tolist()),",
        "raw=tuple(np.asarray(raw[0], dtype=float).tolist()),",
        ("tests/test_cli.py::TestRun::test_trace_prints_a_near_tie_exactly",),
        "killed",
        "a trace reports the scaled sums, 3 for 0.3: "
        "test_trace_prints_a_near_tie_exactly",
    ),
    Mutant(
        "threshold-ge-ceil",
        DYNAMICS,
        "else math.ceil(c) - 1",
        "else math.ceil(c)",
        ("tests/test_dynamics.py",),
        "killed",
        "an exact sum equal to an integral ge cutoff is read as off",
    ),
    Mutant(
        "threshold-ge-floor-split",
        DYNAMICS,
        "else math.ceil(c) - 1",
        "else math.floor(c) - (c == math.floor(c))",
        ("tests/test_dynamics.py::TestEngineCore",
         "tests/test_dynamics.py::TestEnumeration",
         "tests/test_dynamics.py::TestExactProduct"),
        "equivalent",
        "ceil(c) - 1 is floor(c) - 1 for integral c and floor(c) otherwise; "
        "the listed classes meet both kinds of ge cutoff on the exact path",
    ),
    Mutant(
        "threshold-clamp-2-23",
        DYNAMICS,
        "min(max(t, -bound), bound)",
        "min(max(t, -bound // 2), bound // 2)",
        ("tests/test_dynamics.py::TestExactProduct",),
        "killed",
        "a sum between 2**23 and 2**24 passes a cutoff above it: "
        "test_a_sum_between_2_23_and_2_24",
    ),
    Mutant(
        "units-read-columns",
        DYNAMICS,
        "self._next(self.grid.T, first_rule, out)",
        "self._next(self.grid, first_rule, out)",
        ("tests/test_dynamics.py",),
        "killed",
        "unit seed i's first sums become column i of the grid",
    ),
    Mutant(
        "next-ignores-first-rule",
        DYNAMICS,
        "_threshold(first_rule or self.rule, self.grid, self.scale)",
        "_threshold(self.rule, self.grid, self.scale)",
        ("tests/test_dynamics.py",),
        "killed",
        "the census thresholds a run's first product by the side rule",
    ),
    Mutant(
        "pack-shift",
        DYNAMICS,
        "np.left_shift(hit, j, out=hit)",
        "np.left_shift(hit, j + 1, out=hit)",
        ("tests/test_dynamics.py",),
        "killed",
        "every tabulated state moves up one bit",
    ),
    Mutant(
        "two-sided-row-keeps-every-key",
        DYNAMICS,
        "                if not one_sided:  # it settles: its last state is enough\n"
        "                    visited.clear()\n",
        "",
        ("tests/test_dynamics.py::TestEngineCore::"
         "test_memory_of_a_two_sided_run_does_not_grow_with_it",),
        "killed",
        "the same patterns, but the 798-round chain keeps a key a round: "
        "test_memory_of_a_two_sided_run_does_not_grow_with_it",
    ),
    Mutant(
        "round-counter-from-1",
        DYNAMICS,
        "itertools.islice(schedule, min(max_steps, sys.maxsize))\n    ):",
        "itertools.islice(schedule, min(max_steps, sys.maxsize)), 1\n    ):",
        ("tests/test_dynamics.py::TestEngineCore::"
         "test_peak_memory_of_a_two_sided_chain_sweep",),
        "killed",
        "every pattern is entered one round late: "
        "test_peak_memory_of_a_two_sided_chain_sweep",
    ),
    Mutant(
        "steps-to-enter-from-the-dict-alone",
        DYNAMICS,
        "(t // len(moves) - len(keys) + j, keys[j:])",
        "(j, keys[j:])",
        ("tests/test_dynamics.py::TestEngineCore::"
         "test_peak_memory_of_a_long_two_sided_run",),
        "killed",
        "a two-sided row's one kept key reads as entered after 0 rounds: "
        "test_peak_memory_of_a_long_two_sided_run",
    ),
    Mutant(
        "two-sided-row-rule-on-one-sided-rows",
        DYNAMICS,
        "                if not one_sided:  # it settles",
        "                if one_sided:  # it settles",
        ("tests/test_dynamics.py::TestEngineCore::"
         "test_peak_memory_of_a_one_sided_sweep",),
        "killed",
        "one-sided rows keep only their last state and never close a "
        "limit cycle: test_peak_memory_of_a_one_sided_sweep",
    ),
    Mutant(
        "engine-compares-ge",
        DYNAMICS,
        "bits = raw > cutoff",
        "bits = raw >= cutoff",
        ("tests/test_dynamics.py::TestExactProduct",),
        "killed",
        "an integer sum equal to the integer cutoff passes it",
    ),
    Mutant(
        "pack-compares-ge",
        DYNAMICS,
        "np.greater(column, cutoff, out=hit)",
        "np.greater_equal(column, cutoff, out=hit)",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "the census passes a sum equal to the integer cutoff",
    ),
    Mutant(
        "run-no-seed-forcing",
        DYNAMICS,
        "state = bits | seeds if forced else bits",
        "state = bits",
        ("tests/test_dynamics.py",),
        "killed",
        "the seed's coordinates are no longer forced back on",
    ),
    Mutant(
        "shifted-cutoff-sign",
        DYNAMICS,
        "else cutoff - shifts",
        "else cutoff + shifts",
        ("tests/test_dynamics.py::TestExactProduct",),
        "killed",
        "seeds with a high bit set meet the cutoff plus their high-bit sums: "
        "test_a_cutoff_shifted_past_2_24",
    ),
    Mutant(
        "first-check-no-meet",
        DYNAMICS,
        "    np.copyto(meet, hare)\n",
        "",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "seeds resolved at the first check keep whatever their meeting "
        "state's memory held",
    ),
    Mutant(
        "first-check-scatters",
        DYNAMICS,
        "live = _settle(walk, resolved)",
        "live = _settle(walk, resolved, (1, cycles, meet))",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "the same census, but the seeds resolved at the first check are "
        "scattered again: test_seeds_resolved_at_the_first_check_are_written"
        "_in_place",
    ),
    Mutant(
        "settle-skips-done-chunks",
        DYNAMICS,
        "if kept == a and not part.any():",
        "if kept == a:",
        ("tests/test_dynamics.py::TestEnumeration::"
         "test_settle_copies_only_the_chunks_from_the_first_done_one",),
        "killed",
        "done columns before the first dropped one are never dropped, so "
        "Brent's walk would not end",
    ),
    Mutant(
        "group-by-minimum-alone",
        DYNAMICS,
        "new[1:] = (low[1:] != low[:-1]) | (mask[1:] != mask[:-1])",
        "new[1:] = low[1:] != low[:-1]",
        ("tests/test_dynamics.py::TestEnumeration::"
         "test_cycles_sharing_a_minimum_stay_apart",),
        "killed",
        "the period-2 cycles (11, 13) and (11, 15) share their minimum and "
        "become one attractor",
    ),
    Mutant(
        "group-sorted-by-and-first",
        DYNAMICS,
        "order = np.lexsort((mask, low))",
        "order = np.lexsort((low, mask))",
        ("tests/test_dynamics.py::TestEnumeration",),
        "equivalent",
        "equal (minimum, AND) pairs still sort next to each other; group "
        "keys are only ever read back through the smallest seed's number",
    ),
    Mutant(
        "orbit-under-minimum",
        DYNAMICS,
        "_step(table, rows[t - 1], mask, rows[t])",
        "_step(table, rows[t - 1], rows[0], rows[t])",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "a group's cycle is walked under table[s] | minimum, which ORs in "
        "bits that other states of the cycle lack",
    ),
    Mutant(
        "period-1-listed",
        DYNAMICS,
        "if lam > 1:",
        "if lam > 0:",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "fixed points resolved after the first check become one-state "
        "groups beside the fixed point keyed by its state",
    ),
    Mutant(
        "period-2-not-listed",
        DYNAMICS,
        "if lam > 1:",
        "if lam > 2:",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "seeds on period-2 cycles are read as fixed points at their "
        "meeting state",
    ),
    Mutant(
        "census-numbered-by-key",
        DYNAMICS,
        "keys = meet[mark[:n_seeds]]",
        "keys = np.sort(meet[mark[:n_seeds]])",
        ("tests/test_dynamics.py::TestEnumeration::"
         "test_attractors_are_numbered_by_smallest_seed_not_by_key",),
        "killed",
        "attractors are numbered by fixed state, then by cycle group",
    ),
    Mutant(
        "mark-without-a-spare-slot",
        DYNAMICS,
        "mark = np.zeros(n_seeds + 1, dtype=bool)",
        "mark = np.zeros(n_seeds, dtype=bool)",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "a key that no seed reaches scatters past the last seed",
    ),
    Mutant(
        "fixed-state-one-late",
        DYNAMICS,
        "states[offsets[lead:-1]] = keys[lead:]",
        "states[offsets[lead:-1] + 1] = keys[lead:]",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "after the first cycle, each fixed point's state lands one slot "
        "late",
    ),
    Mutant(
        "fixed-state-at-slot-end",
        DYNAMICS,
        "states[offsets[lead:-1]] = keys[lead:]",
        "states[offsets[lead + 1 :] - 1] = keys[lead:]",
        ("tests/test_dynamics.py::TestEnumeration",),
        "equivalent",
        "a fixed point has one slot, so its last is its first; every slot of "
        "a cycle is overwritten by its group's rows",
    ),
    Mutant(
        "lead-past-first-cycle",
        DYNAMICS,
        "lead = int(number[n_seeds:].min(initial=count))",
        "lead = int(number[n_seeds:].max(initial=count))",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "every attractor is given one slot, cycles too",
    ),
    Mutant(
        "cycle-rows-not-written",
        DYNAMICS,
        "for p, slot, rows in slots:",
        "for p, slot, rows in slots[:0]:",
        ("tests/test_dynamics.py::TestEnumeration",),
        "killed",
        "a cycle's slots keep its group key and whatever the memory held",
    ),
    Mutant(
        "census-seed-0-or",
        DYNAMICS,
        "start |= seeds",
        "start[1:] |= seeds[1:]",
        ("tests/test_dynamics.py::TestEnumeration",
         "tests/test_dynamics.py::TestExactProduct",
         "tests/test_dynamics.py::TestHiddenPattern::"
         "test_antisymmetric_two_node_matches_enumeration"),
        "equivalent",
        "seed 0 has no bit to OR into its start state",
    ),
    Mutant(
        "first-step-cutoff-optional",
        MODEL_IO,
        '_fields(fs, "policy.first_step", ("mode", "cmp", "cutoff"))',
        '_fields(fs, "policy.first_step", ("mode", "cmp"), ("cutoff",))',
        ("tests/test_model_io.py::TestFieldMessages",),
        "killed",
        "a first step with no cutoff is reported only after the side rules: "
        "test_first_step_shape_reported_before_the_side_rules",
    ),
    Mutant(
        "fields-admit-unknown",
        MODEL_IO,
        "    if extra:\n",
        "    if False:\n",
        ("tests/test_model_io.py::TestFieldMessages",),
        "killed",
        "an object's unknown fields are ignored",
    ),
    Mutant(
        "json-writes-non-finite-floats-by-repr",
        MODEL_IO,
        "type(value) is float and math.isfinite(value)",
        "type(value) is float",
        ("tests/test_model_io.py::TestJsonWriter",),
        "killed",
        "NaN and the infinities are written as nan and inf, which no JSON "
        "reader takes",
    ),
    Mutant(
        "arr-one-space-indent",
        MODEL_IO,
        'body = f",\\n  {pad}".join(items)',
        'body = f",\\n {pad}".join(items)',
        ("tests/test_model_io.py::TestJsonWriter",),
        "killed",
        "every item after a list's or object's first is indented one space "
        "short",
    ),
    Mutant(
        "row-pass-admits-a-short-row",
        MODEL_IO,
        "and len(set(map(len, matrix))) == 1",
        "and len(set(map(len, matrix))) <= 2",
        ("tests/test_model_io.py::TestFirstBadItemAfterValidOnes",),
        "killed",
        "a short row reaches NumPy, which raises ValueError: "
        "test_short_row_after_valid_rows[False]",
    ),
    Mutant(
        "row-pass-types-of-the-first-row",
        MODEL_IO,
        "and _numbers(map(type, chain.from_iterable(matrix)))",
        "and _numbers(map(type, matrix[0]))",
        ("tests/test_model_io.py::TestParseMessages",),
        "killed",
        "a true in a later row is read as 1: test_non_number_entry[true-7]",
    ),
    Mutant(
        "block-pass-skips-label-types",
        MODEL_IO,
        "and _strings(map(type, chain.from_iterable(blocks)))",
        "and _strings(map(type, blocks[0]))",
        ("tests/test_model_io.py::TestFirstBadItemAfterValidOnes",),
        "killed",
        "a non-string label after the first block reaches validation: "
        "test_non_string_label_in_a_later_block",
    ),
    Mutant(
        "label-pass-skips-the-last-length",
        MODELS,
        "max(map(len, blk), default=0)",
        "max(map(len, blk[:-1]), default=0)",
        ("tests/test_model_io.py::TestFirstBadItemAfterValidOnes",),
        "killed",
        "a block's last label is never measured: "
        "test_bad_last_label_of_a_middle_block[label_length]",
    ),
    Mutant(
        "label-pass-skips-the-last-control",
        MODELS,
        'joined = "".join(blk)',
        'joined = "".join(blk[:-1])',
        ("tests/test_model_io.py::TestFirstBadItemAfterValidOnes",),
        "killed",
        "a block's last label is never searched for a control character: "
        "test_bad_last_label_of_a_middle_block[label_control]",
    ),
    Mutant(
        "label-pass-of-an-empty-block",
        MODELS,
        "max(map(len, blk), default=0)",
        "max(map(len, blk))",
        ("tests/test_models.py::TestValidate",),
        "killed",
        "an empty label block raises ValueError instead of its diagnostic: "
        "test_empty_label_block_of_a_code_built_spec",
    ),
    Mutant(
        "duplicate-pass-always-passes",
        MODELS,
        "if len(set(flat)) != len(flat):",
        "if False:",
        ("tests/test_model_io.py::TestFirstBadItemAfterValidOnes",),
        "killed",
        "repeated labels are never reported: "
        "test_label_repeated_across_blocks",
    ),
    Mutant(
        "entry-pass-skips-the-last-cell",
        "src/fuzzymaps/supermatrix.py",
        "if inside.all():",
        "if inside.ravel()[:-1].all():",
        ("tests/test_model_io.py::TestFirstBadItemAfterValidOnes",),
        "killed",
        "a matrix bad only in its last cell passes: "
        "test_entry_outside_the_domain_in_the_last_cell",
    ),
    Mutant(
        "block-position-one-late",
        MODELS,
        "on.add(part.offsets[b - 1] + p - 1)",
        "on.add(part.offsets[b - 1] + p)",
        ("tests/test_models.py::TestNameForms",),
        "killed",
        "block.position names count positions from 0",
    ),
    Mutant(
        "label-length-64-refused",
        MODELS,
        "_MAX_LABEL = 64",
        "_MAX_LABEL = 63",
        ("tests/test_model_io.py::TestLabelRules",),
        "killed",
        "a 64-character label is refused: test_64_character_label_passes",
    ),
    Mutant(
        "partition-matrix-second-copy",
        "src/fuzzymaps/supermatrix.py",
        "return SuperMatrix(entries, rp, cp)",
        "return SuperMatrix(np.array(entries, dtype=float), rp, cp)",
        ("tests/test_supermatrix.py::TestPartitionMatrix",),
        "killed",
        "a list grid is copied twice: test_a_list_grid_is_copied_once",
    ),
    Mutant(
        "cuts-read-by-int",
        "src/fuzzymaps/supermatrix.py",
        'cut_list = _integers(cuts, "cuts")',
        "cut_list = [int(c) for c in cuts]",
        ("tests/test_supermatrix.py::TestPartitionFromCuts",),
        "killed",
        "the cut 2.5 is read as 2: test_cut_that_is_not_an_integer[2.5]",
    ),
    Mutant(
        "sizes-int-errors-escape",
        "src/fuzzymaps/supermatrix.py",
        "except (TypeError, ValueError, OverflowError):",
        "except OverflowError:",
        ("tests/test_supermatrix.py::TestPartition",),
        "killed",
        "int('a') raises a bare ValueError: "
        "test_non_integral_sizes_rejected[sizes3]",
    ),
    Mutant(
        "max-steps-not-an-integer-admitted",
        DYNAMICS,
        'if not hasattr(type(max_steps), "__index__"):',
        "if False:",
        ("tests/test_dynamics.py::TestHiddenPattern",
         "tests/test_dynamics.py::TestSweep"),
        "killed",
        "islice raises its own ValueError on max_steps=2.5: "
        "test_max_steps_that_is_not_an_integer[2.5]",
    ),
    Mutant(
        "nesting-escapes-as-recursion-error",
        MODEL_IO,
        "except RecursionError as e:",
        "except ZeroDivisionError as e:",
        ("tests/test_model_io.py::TestParseErrors",),
        "killed",
        "a document nested too deeply raises a bare RecursionError: "
        "test_nested_too_deeply[arrays]",
    ),
    Mutant(
        "block-pass-skips-surrogates",
        MODELS,
        '_UNWRITABLE = re.compile("[\\x00-\\x1f\\ud800-\\udfff]")',
        '_UNWRITABLE = re.compile("[\\x00-\\x1f]")',
        ("tests/test_model_io.py::TestLoneSurrogates",),
        "killed",
        "a block whose only fault is a lone surrogate is never walked: "
        "test_label_refused",
    ),
    Mutant(
        "label-walk-skips-surrogates",
        MODELS,
        '"holds a lone surrogate", _SURROGATE(lab)',
        '"holds a lone surrogate", False',
        ("tests/test_model_io.py::TestLoneSurrogates",),
        "killed",
        "the walk of a failing block reports no lone surrogate: "
        "test_label_refused",
    ),
    Mutant(
        "name-pass-skips-surrogates",
        MODELS,
        "if _SURROGATE(spec.name):",
        "if False:",
        ("tests/test_model_io.py::TestLoneSurrogates",),
        "killed",
        "a name holding a lone surrogate passes: "
        "test_model_name_refused",
    ),
    Mutant(
        "max-steps-past-sys-maxsize",
        DYNAMICS,
        "schedule, min(max_steps, sys.maxsize)",
        "schedule, max_steps",
        ("tests/test_dynamics.py::TestHiddenPattern",),
        "killed",
        "islice refuses a stop above sys.maxsize: "
        "test_max_steps_above_any_run[9223372036854775808]",
    ),
    Mutant(
        "trace-step-index-from-0",
        DYNAMICS,
        "for k, product in enumerate(self._products, 1):",
        "for k, product in enumerate(self._products):",
        ("tests/test_dynamics.py::TestEngineCore::"
         "test_trace_equals_stepped_records_on_fuzzy_entries",),
        "killed",
        "iterated records count products from 0: "
        "test_trace_equals_stepped_records_on_fuzzy_entries",
    ),
    Mutant(
        "trace-thresholded-after-forcing",
        DYNAMICS,
        "thresholded=tuple(bits.tobytes()),",
        "thresholded=tuple(state.tobytes()),",
        ("tests/test_dynamics.py::TestEngineCore::"
         "test_trace_equals_stepped_records_on_fuzzy_entries",),
        "killed",
        "a record's thresholded bits include the forced seed: "
        "test_trace_equals_stepped_records_on_fuzzy_entries",
    ),
    Mutant(
        "trace-eq-on-lengths-only",
        DYNAMICS,
        "return len(self) == len(other) and all(map(operator.eq, self, other))",
        "return len(self) == len(other)",
        ("tests/test_dynamics.py::TestTrace",),
        "killed",
        "two traces of ten products compare equal: "
        "test_traces_of_one_length_differ",
    ),
    Mutant(
        "trace-iter-drops-last-step",
        DYNAMICS,
        "for k, product in enumerate(self._products, 1):",
        "for k, product in enumerate(self._products[:-1], 1):",
        ("tests/test_dynamics.py::TestEngineCore::"
         "test_trace_equals_stepped_records_on_fuzzy_entries",),
        "killed",
        "equality over the shorter iteration still holds, the tuple of the "
        "records does not: test_trace_equals_stepped_records_on_fuzzy_entries",
    ),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for top in ("src", "tests"):
        shutil.copytree(ROOT / top, dest / top, ignore=skip)


def _pytest(tree: Path, tests: tuple[str, ...]) -> tuple[bool, str]:
    """Run ``tests`` in ``tree``: (passed, the first failure reported, else
    the last line of the output)."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += ["--hypothesis-seed=0", *tests]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        done = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines() or [""]
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, failed[0] if failed else lines[-1]


def _mutated(path: Path, mutant: Mutant) -> str:
    """The text of ``path`` with ``mutant`` applied."""
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        sys.exit(f"{mutant.name}: its text occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for mutant in MUTANTS:  # every mutant's text applies before any runs
            _mutated(ROOT / mutant.path, mutant)
        base = Path(tmp) / "base"
        _copy_tree(base)
        listed = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        passed, last = _pytest(base, listed)
        if not passed:
            print(f"the unmutated tree fails its tests: {last}")
            return 2
        for k, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{k}"
            _copy_tree(tree)
            target = tree / mutant.path
            target.write_text(_mutated(target, mutant), encoding="utf-8")
            start = time.perf_counter()
            survived, last = _pytest(tree, mutant.tests)
            seconds = time.perf_counter() - start
            got = "equivalent" if survived else "killed"
            ok = got == mutant.verdict
            failures += not ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {got}, expected "
                f"{mutant.verdict} ({seconds:.1f} s; {last})"
            )
            if not ok:
                print(f"     {mutant.reason}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} verdicts hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
