#!/usr/bin/env python3
"""Run the mutation catalogue: small deliberate faults the tests must catch.

Each entry names a file, an exact text that occurs once in it, the text
that replaces it, and a pytest selection.  For each entry the repository
is copied to a temporary directory (without .git and caches), the edit is
applied there, and the selection runs with PYTHONPATH=src.  The mutant is
`killed` when the selection fails, `survived` when it passes, and `error`
when its text is not found once or pytest cannot run the selection.
Before the mutants, every selection runs once on an unmutated copy: a
selection that already fails there could kill nothing.

    python scripts/mutants.py                  # one line per mutant
    python scripts/mutants.py --json           # one JSON report
    python scripts/mutants.py --only NAME ...  # the named mutants alone

Exit status is 0 when every mutant run is killed, and 2, before anything
runs, when a name given to --only is not in the catalogue.  Standard
library only; it runs outside the tier-1 suite, which checks that every
catalogued text still occurs in its file and that an unknown name exits 2.  Mutation analysis follows DeMillo, Lipton
and Sayward, "Hints on test data selection", IEEE Computer (1978).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    selection: tuple[str, ...]  # pytest arguments


MUTANTS = [
    Mutant(
        "gap1-kernel-returns-meets",
        "src/aritygap/verifier.py",
        "lambda *a: _gap_at_most(*a, 1)[0], 4, 2)",
        "lambda *a: a[-1], 4, 2)",
        ("tests/test_verifier.py::TestDeg2Kernel::test_one_lane_on_every_table",),
    ),
    Mutant(
        "flags-at-k1-builds-masks",
        "src/aritygap/core.py",
        "    if k == 1:\n        return (), 0\n",
        "",
        ("tests/test_verifier.py::test_one_element_domain_in_bounded_memory",),
    ),
    Mutant(
        "flags-meet-every-lane",
        "src/aritygap/core.py",
        "return e, _ess_lanes(e, _layout(k, field_width(b), n, lanes)[3], least)",
        "return e, _layout(k, field_width(b), n, lanes)[3]",
        ("tests/test_verifier.py::TestOneHypothesis::test_one_table_entries_raise_iff_the_oracle_misses_the_hypothesis",),
    ),
    Mutant(
        "gap-scan-bound-not-cut-to-n",
        "src/aritygap/core.py",
        "((1 << p) - min(gap, n)) * ones",
        "((1 << p) - gap) * ones",
        ("tests/test_verifier.py::TestTableKernels::test_gap_kernels_match_the_oracle",),
    ),
    Mutant(
        "gap-scan-bias-one-high",
        "src/aritygap/core.py",
        "bias = ((1 << p) - min(gap, n)) * ones",
        "bias = ((1 << p) - min(gap, n) + 1) * ones",
        ("tests/test_core.py::TestGapAtMost::test_lanes_match_the_oracle",),
    ),
    Mutant(
        "gap-scan-shortcut-at-every-gap",
        "src/aritygap/core.py",
        "if gap == 1:",
        "if gap >= 1:",
        ("tests/test_core.py::TestGapReport::test_majority",),
    ),
    Mutant(
        "gap-scan-ignores-the-count",
        "src/aritygap/core.py",
        "kept &= ~(count >> p)",
        "kept &= ~0",
        ("tests/test_core.py::TestGapReport::test_gaps_three_and_four_match_the_oracle_with_witness",),
    ),
    Mutant(
        "gap-ladder-starts-at-2",
        "src/aritygap/core.py",
        "for gap in range(1, count + 1):",
        "for gap in range(2, count + 1):",
        ("tests/test_core.py::TestGapReport::test_and",),
    ),
    Mutant(
        "carry-constant-off-by-one",
        "src/aritygap/core.py",
        "((1 << p) - least) * ones",
        "((1 << p) - least + 1) * ones",
        ("tests/test_core.py::TestGap1Lanes::test_ess_lanes_count_essential_variables",),
    ),
    Mutant(
        "ess-lanes-ignores-flags",
        "src/aritygap/core.py",
        "return (sum(flags) + ",
        "return (len(flags) * ones + ",
        ("tests/test_core.py::TestGap1Lanes",),
    ),
    Mutant(
        "identified-wrong-shift",
        "src/aritygap/core.py",
        "return on0 | on1 | (on0 >> si) | (on1 << si)",
        "return on0 | on1 | (on0 << si) | (on1 >> si)",
        ("tests/test_core.py::TestIdentify",),
    ),
    Mutant(
        "dependence-flags-lane-0-only",
        "src/aritygap/core.py",
        "_depends(block, size, ones, fill, s, low)",
        "_depends(block, size, 1, fill, s, low)",
        ("tests/test_core.py::TestBlockLayout::test_identified_on_a_block_is_identify_per_lane",),
    ),
    Mutant(
        "gap-scan-counts-survivors-of-f",
        "src/aritygap/core.py",
        "survives = ((((minor << stride) ^ minor) & low)",
        "survives = ((((block << stride) ^ block) & low)",
        ("tests/test_core.py::TestGapReport", "tests/test_core.py::TestGap1Lanes"),
    ),
    Mutant(
        "gap-scan-carry-without-fill",
        "src/aritygap/core.py",
        "& low) + fill) >> size",
        "& low) + 0) >> size",
        ("tests/test_core.py::TestGapReport::test_and",),
    ),
    Mutant(
        "gap-plan-others-include-i",
        "src/aritygap/core.py",
        "for t in range(n) if t != i)",
        "for t in range(n))",
        ("tests/test_core.py::TestGapAtMost::test_lanes_match_the_oracle",),
    ),
    Mutant(
        "gap-plan-drops-the-last-variable",
        "src/aritygap/core.py",
        "for t in range(n) if t != i)",
        "for t in range(n - 1) if t != i)",
        ("tests/test_core.py::TestGapAtMost::test_lanes_match_the_oracle",),
    ),
    Mutant(
        "gap-plan-next-variables-stride",
        "src/aritygap/core.py",
        "tuple((t, strides[t], lower[t])",
        "tuple((t, strides[(t + 1) % n], lower[t])",
        ("tests/test_core.py::TestGapAtMost::test_lanes_match_the_oracle",),
    ),
    Mutant(
        "gap-plan-next-variables-lower-mask",
        "src/aritygap/core.py",
        "tuple((t, strides[t], lower[t])",
        "tuple((t, strides[t], lower[(t + 1) % n])",
        ("tests/test_core.py::TestGapAtMost::test_lanes_match_the_oracle",),
    ),
    Mutant(
        "gap-plan-pairs-in-colex-order",
        "src/aritygap/core.py",
        "for i, row in enumerate(others) for j in range(i + 1, n)",
        "for j in range(n) for i, row in enumerate(others[:j])",
        ("tests/test_core.py::TestGapAtMost::test_lanes_match_the_oracle",),
    ),
    Mutant(
        "is-essential-reads-the-next-flag",
        "src/aritygap/core.py",
        "_dependence(f.bits, f.k, f.b, f.n, 1)[i - 1]",
        "_dependence(f.bits, f.k, f.b, f.n, 1)[i % f.n]",
        ("tests/test_core.py::TestEssential",),
    ),
    Mutant(
        "deg2-blocks-start-one-part-late",
        "src/aritygap/verifier.py",
        "for q in range(lo // lanes, ",
        "for q in range(lo // lanes + 1, ",
        ("tests/test_verifier.py::TestDeg2Walk",),
    ),
    Mutant(
        "deg2-support-misses-a-variable",
        "src/aritygap/verifier.py",
        "spread = sum(m << slot * t for t, m in enumerate(vm))",
        "spread = sum(m << slot * t for t, m in enumerate(vm[:-1]))",
        ("tests/test_verifier.py::TestDeg2Kernel::test_every_whole_block",),
    ),
    Mutant(
        "deg2-support-slot-one-bit-narrow",
        "src/aritygap/verifier.py",
        "slot = size + 1",
        "slot = size",
        ("tests/test_verifier.py::TestDeg2Kernel::test_support_is_the_variables_of_the_quadratic_part",),
    ),
    Mutant(
        "deg2-table-read-one-bit-off",
        "src/aritygap/verifier.py",
        "table[(q + 1) >> at & 1023]",
        "table[(q + 1) >> at + 1 & 1023]",
        ("tests/test_verifier.py::TestDeg2Walk::test_blocks_are_whole_quadratic_parts",),
    ),
    Mutant(
        "deg2-flags-meet-above-least",
        "src/aritygap/verifier.py",
        "return e, _ess_lanes(e, ones, least)",
        "return e, _ess_lanes(e, ones, least + 1)",
        ("tests/test_verifier.py::TestDeg2Kernel::test_blocks_of_the_n6_ranges",),
    ),
    Mutant(
        "skip-count-off-by-one",
        "src/aritygap/verifier.py",
        "skipped += end - first - meets.bit_count()",
        "skipped += end - first - meets.bit_count() + 1",
        ("tests/test_verifier.py::TestDeg2Walk",),
    ),
    Mutant(
        "walker-ignores-lower-member-bound",
        "src/aritygap/verifier.py",
        "first, end = max(lo - start, 0), ",
        "first, end = 0, ",
        ("tests/test_verifier.py::TestDeg2Walk",),
    ),
    Mutant(
        "redraw-at-next-index",
        "src/aritygap/verifier.py",
        "bases[16 * m : 16 * m + 16]",
        "bases[16 * m + 16 : 16 * m + 32]",
        ("tests/test_verifier.py::TestLaneClaims::test_sweep_records_the_failing_samples_in_index_order",),
    ),
    Mutant(
        "redraw-seeds-one-attempt-late",
        "src/aritygap/verifier.py",
        "seeds + attempt * GOLDEN",
        "seeds + (attempt + 1) * GOLDEN",
        ("tests/test_verifier.py::TestLaneClaims::test_rejection_draws_each_attempt_once",),
    ),
    Mutant(
        "unrecorded-hits-uncounted",
        "src/aritygap/verifier.py",
        "hits += fails.bit_count()",
        "hits += 0",
        ("tests/test_census.py::test_thm1_hits_are_the_witnesses_of_arity_two",),
    ),
    Mutant(
        "redraw-hit-uncounted",
        "src/aritygap/verifier.py",
        "_set_lanes(now & ~ok, width)",
        "_set_lanes(0, width)",
        ("tests/test_verifier.py::TestLaneClaims::test_redraws_that_fail_the_claim_are_counted",),
    ),
    Mutant(
        "walker-builds-unrecorded-hits",
        "src/aritygap/verifier.py",
        "islice(_set_lanes(fails, width), room), *redrawn])[:room]",
        "islice(_set_lanes(fails, width), None), *redrawn])",
        ("tests/test_verifier.py::TestSweep::test_thm1_builds_only_the_recorded_witnesses",),
    ),
    Mutant(
        "walker-skips-at-one-free-slot",
        "src/aritygap/verifier.py",
        "if (fails or redrawn) and len(recorded) < max_recorded:",
        "if (fails or redrawn) and len(recorded) < max_recorded - 1:",
        ("tests/test_verifier.py::TestDeg2Walk::test_hits_are_built_in_index_order",),
    ),
    Mutant(
        "exhaustive-tables-in-wrong-lanes",
        "src/aritygap/verifier.py",
        "yield start, lanes, bits(start) * ones + ramp",
        "yield start, lanes, bits(start + lanes - 1) * ones - ramp",
        ("tests/test_verifier.py::TestLaneClaims::test_exhaustive_sweep_counts_and_records_in_code_order",),
    ),
    Mutant(
        "code-block-start-not-aligned",
        "src/aritygap/verifier.py",
        "range(lo - lo % lanes, hi, lanes)",
        "range(lo, hi, lanes)",
        ("tests/test_verifier.py::TestCodeBlocks::test_chunks_cutting_blocks_of_a_ternary_walk_add_up",),
    ),
    Mutant(
        "code-ramp-runs-reversed",
        "src/aritygap/verifier.py",
        "<< c * lanes * width for c in range(r))",
        "<< (r - 1 - c) * lanes * width for c in range(r))",
        ("tests/test_verifier.py::TestCodeBlocks::test_every_lane_holds_its_code",),
    ),
    Mutant(
        "code-radix-b-for-powers-of-two",
        "src/aritygap/verifier.py",
        "2 if b & (b - 1) == 0 else b",
        "b",
        ("tests/test_verifier.py::TestCodeBlocks::test_boolean_domain_powers_of_two_keep_their_lane_count",),
    ),
    Mutant(
        "redraw-from-attempt-0",
        "src/aritygap/verifier.py",
        "range(1, 10000):  # the block drew attempt 0",
        "range(0, 10000):",
        ("tests/test_verifier.py::TestLaneClaims::test_rejection_draws_each_attempt_once",),
    ),
    Mutant(
        "redraw-in-its-compact-lane",
        "src/aritygap/verifier.py",
        "(pending[j], drawn >> j * width & table)",
        "(j, drawn >> j * width & table)",
        ("tests/test_verifier.py::TestLaneClaims::test_sweep_records_the_failing_samples_in_index_order",),
    ),
    Mutant(
        "rejection-cap-one-draw-early",
        "src/aritygap/verifier.py",
        "range(1, 10000)",
        "range(1, 9999)",
        ("tests/test_verifier.py::TestLaneClaims::test_rejection_stops_after_ten_thousand_draws",),
    ),
    Mutant(
        "redraw-counts-padding-lanes",
        "src/aritygap/verifier.py",
        "& members & ~meets",
        "& ~meets",
        ("tests/test_verifier.py::TestKernelBlocks::test_chunks_cutting_blocks_of_a_rejecting_sweep_add_up",),
    ),
    Mutant(
        "redraw-keeps-attempt-0-table",
        "src/aritygap/verifier.py",
        "redrawn[m] if m in redrawn else block >> m * width & table",
        "block >> m * width & table",
        ("tests/test_verifier.py::TestLaneClaims::test_sweep_records_the_failing_samples_in_index_order",),
    ),
    Mutant(
        "set-lanes-one-lane-off",
        "src/aritygap/verifier.py",
        "yield (8 * at + data[at].bit_length() - 1) // width",
        "yield (8 * at + data[at].bit_length() - 1) // width + 1",
        ("tests/test_verifier.py::TestKernelBlocks::test_set_lanes_is_the_bit_loop",),
    ),
    Mutant(
        "redrawn-hits-without-lane-merge",
        "src/aritygap/verifier.py",
        "sorted([*islice(",
        "([*islice(",
        ("tests/test_verifier.py::TestLaneClaims::test_sweep_records_the_failing_samples_in_index_order",),
    ),
    Mutant(
        "pack-halves-swapped",
        "src/aritygap/verifier.py",
        "lo | hi << width",
        "hi | lo << width",
        ("tests/test_verifier.py::TestKernelBlocks::test_pack_is_the_sum",),
    ),
    Mutant(
        "fallback-gap-fixed-at-2",
        "src/aritygap/verifier.py",
        "good | _gap_at_most(block, k, b, n, lanes, e, two, 2)[0]",
        "good | two",
        ("tests/test_verifier.py::TestLaneClaims::test_kernels_and_check_follow_the_claims",),
    ),
    Mutant(
        "thm-str-second-scan-at-gap-1",
        "src/aritygap/verifier.py",
        "e, two, 2)[0]",
        "e, two, 1)[0]",
        ("tests/test_verifier.py::TestLaneClaims::test_kernels_and_check_follow_the_claims",),
    ),
    Mutant(
        "thmgen-claim-gap-below-2",
        "src/aritygap/verifier.py",
        "_gap_at_most(block, k, *a, k)[0]",
        "_gap_at_most(block, k, *a, 1)[0]",
        ("tests/test_verifier.py::TestTableKernels::test_gap_kernels_match_the_oracle",),
    ),
    Mutant(
        "thmgen-bound-at-2",
        "src/aritygap/verifier.py",
        "_gap_at_most(block, k, *a, k)[0]",
        "_gap_at_most(block, k, *a, 2)[0]",
        ("tests/test_verifier.py::TestTableKernels::test_gap_kernels_match_the_oracle",),
    ),
    Mutant(
        "scan-kernel-returns-meets",
        "src/aritygap/verifier.py",
        "return sum(kept for *_, kept in scan(block, k, b, n, lanes, meets))",
        "return meets",
        ("tests/test_verifier.py::TestTableKernels",),
    ),
    Mutant(
        "restriction-scan-skips-last-value",
        "src/aritygap/verifier.py",
        "for c in range(k):",
        "for c in range(k - 1):",
        ("tests/test_verifier.py::TestTableKernels::test_restriction_scan_and_kernel_match_the_oracle",),
    ),
    Mutant(
        "kplus1-scan-reads-first-k-variables",
        "src/aritygap/verifier.py",
        "for t in range(k + 1):",
        "for t in range(k):",
        ("tests/test_verifier.py::TestTableKernels::test_kplus1_scan_and_kernel_match_the_oracle",),
    ),
    Mutant(
        "thm1-row0-one-field-off",
        "src/aritygap/verifier.py",
        "off = block ^ (block >> size - w & ",
        "off = block ^ (block >> size - 2 * w & ",
        ("tests/test_verifier.py::TestTableKernels::test_thm1_kernel_and_walker_match_the_oracle",),
    ),
    Mutant(
        "thm1-witness-without-ess-test",
        "src/aritygap/verifier.py",
        "witness = (off + fill) >> size & meets",
        "witness = meets",
        ("tests/test_verifier.py::TestSweep::test_thm1_witness_census",),
    ),
    Mutant(
        "thm1-hypothesis-meets-only-total-lanes",
        "src/aritygap/verifier.py",
        "return (), _spaced_ones(lanes, _lane_width(k**n * field_width(b)))",
        "return _flags(block, k, b, n, lanes, least)",
        ("tests/test_verifier.py::TestSweep::test_thm1_witness_census",),
    ),
    Mutant(
        "thm1-rainbow-permutes-past-k",
        "src/aritygap/verifier.py",
        "permutations(range(k), n)] if n <= k else []",
        "permutations(range(k), n)]",
        ("tests/test_verifier.py::test_one_element_domain_in_bounded_memory",),
    ),
    Mutant(
        "run-range-claims-non-members",
        "src/aritygap/verifier.py",
        "            meets &= members\n",
        "",
        ("tests/test_verifier.py::TestOneHypothesis::test_claims_see_only_lanes_that_meet",),
    ),
    Mutant(
        "deg2-flags-on-a-table-walk",
        "src/aritygap/verifier.py",
        "TheoremId.THM_STR: _Theorem(False, False, True, _table_walk, _str_claim),",
        "TheoremId.THM_STR: _Theorem(False, False, True, _deg2_walk, _str_claim),",
        ("tests/test_verifier.py::TestOneHypothesis::test_claims_see_only_lanes_that_meet",),
    ),
    Mutant(
        "thm1-witness-without-collapse-test",
        "src/aritygap/verifier.py",
        "~(((off & repeated * meets) + fill) >> size)",
        "~(((off & 0) + fill) >> size)",
        ("tests/test_verifier.py::TestSweep::test_thm1_witness_census",),
    ),
    Mutant(
        "walker-counts-padding-lanes",
        "src/aritygap/verifier.py",
        "        if first or end < lanes:",
        "        if False:",
        ("tests/test_verifier.py::TestTableKernels::test_thm1_kernel_and_walker_match_the_oracle",),
    ),
    Mutant(
        "thm1-claims-a-witness-on-one-element",
        "src/aritygap/verifier.py",
        "exhaustive and 2 <= k and n <= k",
        "exhaustive and n <= k",
        ("tests/test_cli.py::TestSweepCommand::test_thm1_on_one_element_passes",),
    ),
    Mutant(
        "cli-failed-search-reads-nothing-checked",
        "src/aritygap/commands.py",
        "return 0 if report.passed else 1 if report.checked else 4",
        "return 0 if report.passed else 1 if report.violation_count else 4",
        ("tests/test_cli.py::TestSweepCommand::test_thm1_complete_search_without_witness_fails",),
    ),
    Mutant(
        "shared-pass-keeps-rejections",
        "src/aritygap/generators.py",
        "texts if kept == size * g else",
        "texts if shared else",
        ("tests/test_generators.py::TestRandomLanes::test_lanes_are_the_tables_random_function_and_the_oracle_draw",),
    ),
    Mutant(
        "shared-pass-bases-one-counter-late",
        "src/aritygap/generators.py",
        "_copies(seeds, g, rows, 128) + steps",
        "_copies(seeds + GOLDEN, g, rows, 128) + steps",
        ("tests/test_generators.py::TestRandomFunction::test_golden_tables",),
    ),
    Mutant(
        "pass-shared-whatever-b-rejects",
        "src/aritygap/generators.py",
        "_BLOCK * ((1 << 64) % b) < 1 << 64",
        "b <= 1 << 64",
        ("tests/test_generators.py::TestRandomLanes::test_a_pass_is_shared_only_while_it_expects_under_one_rejection",),
    ),
    Mutant(
        "seed-lanes-start-one-index-late",
        "src/aritygap/generators.py",
        "(seed + start * GOLDEN)",
        "(seed + (start + 1) * GOLDEN)",
        ("tests/test_generators.py::TestSplitMix64::test_seeds_mixed_in_lanes_are_the_substream_seeds",),
    ),
    Mutant(
        "pass-doubling-one-step-short",
        "src/aritygap/generators.py",
        "range((rows - 1).bit_length())",
        "range((rows - 1).bit_length() - 1)",
        ("tests/test_generators.py::TestRandomLanes::test_mixed_lanes_of_row_counts_the_doubling_overshoots",),
    ),
    Mutant(
        "pass-table-slice-one-lane-wide",
        "src/aritygap/generators.py",
        "digits[i::g]",
        "digits[i::g + 1]",
        ("tests/test_generators.py::TestRandomLanes::test_lanes_are_the_tables_random_function_and_the_oracle_draw",),
    ),
    Mutant(
        "pass-steps-start-one-row-late",
        "src/aritygap/generators.py",
        "for j in range(rows))",
        "for j in range(1, rows + 1))",
        ("tests/test_generators.py::TestRandomLanes::test_mixed_lanes_of_row_counts_the_doubling_overshoots",),
    ),
    Mutant(
        "mix-first-cut-one-bit-short",
        "src/aritygap/generators.py",
        "(64, min(64, t + 58), min(64, t + 31))",
        "(64, min(64, t + 57), min(64, t + 31))",
        ("tests/test_generators.py::TestRandomLanes::test_a_mix_cut_to_w_bits_is_the_low_w_bits_of_the_whole_mix",),
    ),
    Mutant(
        "mix-second-cut-one-bit-short",
        "src/aritygap/generators.py",
        "(64, min(64, t + 58), min(64, t + 31))",
        "(64, min(64, t + 58), min(64, t + 30))",
        ("tests/test_generators.py::TestRandomLanes::test_a_mix_cut_to_w_bits_is_the_low_w_bits_of_the_whole_mix",),
    ),
    Mutant(
        "bit-lanes-add-drops-top-bit-term",
        "src/aritygap/generators.py",
        "((x & low) + (steps & low)) ^ (x ^ steps) & (lanes ^ low)",
        "((x & low) + (steps & low))",
        ("tests/test_generators.py::TestRandomLanes::test_boolean_lanes_are_the_low_bits_of_the_oracle_stream",),
    ),
    Mutant(
        "bit-lanes-split-read-at-bit-29",
        "src/aritygap/generators.py",
        "a, b = z & m30, z >> 30 & m30",
        "a, b = z & m30, z >> 29 & m30",
        ("tests/test_generators.py::TestRandomLanes::test_boolean_lanes_are_the_low_bits_of_the_oracle_stream",),
    ),
    Mutant(
        "bit-lanes-high-half-unmasked",
        "src/aritygap/generators.py",
        "a, b = z & m30, z >> 30 & m30",
        "a, b = z & m30, z >> 30",
        ("tests/test_generators.py::TestRandomLanes::test_boolean_lanes_are_the_low_bits_of_the_oracle_stream",),
    ),
    Mutant(
        "bit-lanes-cross-term-unmasked",
        "src/aritygap/generators.py",
        "b * _C1_LOW & m30)",
        "b * _C1_LOW)",
        ("tests/test_generators.py::TestRandomLanes::test_boolean_lanes_are_the_low_bits_of_the_oracle_stream",),
    ),
    Mutant(
        "bit-lanes-second-product-unmasked",
        "src/aritygap/generators.py",
        "z = ((z ^ z >> 27) & m32) * (",
        "z = (z ^ z >> 27) * (",
        ("tests/test_generators.py::TestRandomLanes::test_boolean_lanes_are_the_low_bits_of_the_oracle_stream",),
    ),
    Mutant(
        "identify-k1-return-removed",
        "src/aritygap/core.py",
        "    if f.k == 1:  # the one row's minor is that row\n        return f\n",
        "",
        ("tests/test_core.py::TestIdentify::test_one_element_domain_in_bounded_memory",),
    ),
    Mutant(
        "mix-second-product-spills-into-the-next-lane",
        "src/aritygap/generators.py",
        "z = ((z ^ z >> 27) & low) * (",
        "z = (z ^ z >> 27) * (",
        ("tests/test_generators.py::TestRandomLanes::test_a_mix_cut_to_w_bits_is_the_low_w_bits_of_the_whole_mix",),
    ),
    Mutant(
        "mix-cut-for-b-not-a-power-of-two",
        "src/aritygap/generators.py",
        "w if b & b - 1 == 0 and w < 6 else 64",
        "w if w < 6 else 64",
        ("tests/test_generators.py::TestRandomFunction::test_golden_tables",),
    ),
    Mutant(
        "lane-width-drops-guard",
        "src/aritygap/core.py",
        "return max(size + 1, 8)",
        "return max(size, 8)",
        ("tests/test_lane_guard.py::TestCountKernels::test_dependence_and_ess_lanes",),
    ),
    Mutant(
        "lane-width-drops-floor",
        "src/aritygap/core.py",
        "return max(size + 1, 8)",
        "return size + 1",
        ("tests/test_lane_guard.py::TestCountKernels::test_dependence_and_ess_lanes",),
    ),
    Mutant(
        "deg2-flags-at-old-width",
        "src/aritygap/verifier.py",
        "_spaced_ones(2 << n, _lane_width(1 << n))",
        "_spaced_ones(2 << n, 2 << n)",
        ("tests/test_verifier.py::TestDeg2Kernel::test_every_whole_block",),
    ),
    Mutant(
        "random-lanes-old-padding",
        "src/aritygap/generators.py",
        '("0" * (_lane_width(bits) - bits))',
        '("0" * bits)',
        ("tests/test_generators.py::TestRandomLanes::test_lanes_are_the_tables_random_function_and_the_oracle_draw",),
    ),
    Mutant(
        "layout-shares-zero-masks-at-k3",
        "src/aritygap/core.py",
        "lower = zeros if k == 2 else tuple(fill ^",
        "lower = zeros if k <= 3 else tuple(fill ^",
        ("tests/test_core.py::TestBlockLayout::test_lower_masks_at_k3_are_full_minus_the_top_digit",),
    ),
    Mutant(
        "cubic-mask-takes-pairs",
        "src/aritygap/classify.py",
        "p3 << s | p2",
        "p3 << s | p1",
        ("tests/test_classify.py::TestCubicRule::test_cubic_is_the_monomials_of_three_or_more_variables",),
    ),
    Mutant(
        "cubic-lane-carry-one-bit-low",
        "src/aritygap/verifier.py",
        "+ fill) >> (1 << n) & ones",
        "+ fill) >> (1 << n) - 1 & ones",
        ("tests/test_verifier.py::TestLaneRules::test_cubic_lanes_agree_with_a_per_lane_brute_force",),
    ),
    Mutant(
        "thm-str-settles-every-gap1-lane",
        "src/aritygap/verifier.py",
        "good, two = gap1 & _cubic_lanes(block, n, lanes), 0",
        "good, two = gap1, 0",
        ("tests/test_census.py::test_thm_str_asks_the_classifier_on_the_degree_two_polynomials",),
    ),
    Mutant(
        "search-bound-one-high",
        "src/aritygap/verifier.py",
        "_replace(claim=lambda *a: _gap_at_most(*a, 2)[0])",
        "_replace(claim=lambda *a: _gap_at_most(*a, 3)[0])",
        ("tests/test_verifier.py::TestTableKernels::test_gap_kernels_match_the_oracle",),
    ),
    Mutant(
        "cli-quick-path-takes-a-dash-path",
        "src/aritygap/cli.py",
        'if func is None or len(rest) != 1 or rest[0].startswith("-"):',
        "if func is None or len(rest) != 1:",
        ("tests/test_cli.py::TestFileCommandArgs::test_quick_path_reads_what_argparse_reads",),
    ),
    Mutant(
        "digit-reader-takes-the-digit-b",
        "src/aritygap/cli.py",
        "range(48, 48 + b)",
        "range(48, 49 + b)",
        ("tests/test_cli.py::TestDigitReader::test_reads_as_int_and_make_function_do",),
    ),
    Mutant(
        "digit-reader-skips-the-count",
        "src/aritygap/cli.py",
        "\n            or (k > 1 and n >= count.bit_length()) or k**n != count):",
        "):",
        ("tests/test_cli.py::TestDigitReader::test_reads_as_int_and_make_function_do",),
    ),
    Mutant(
        "cli-imports-the-sweep-engine",
        "src/aritygap/cli.py",
        "from .errors import ArityGapError, BudgetExceeded, ParseError\n",
        "from .errors import ArityGapError, BudgetExceeded, ParseError\n"
        "from .verifier import Exhaustive, Sampled, TheoremId, _function_dict, _Search, sweep\n",
        ("tests/test_package.py::TestCliImports",),
    ),
    Mutant(
        "cli-imports-argparse",
        "src/aritygap/cli.py",
        "import json\nimport os\n",
        "import argparse\nimport json\nimport os\n",
        ("tests/test_package.py::TestCliImports::test_file_commands_load_no_argparse_or_engine_commands",),
    ),
    Mutant(
        "core-imports-dataclasses",
        "src/aritygap/core.py",
        "from collections import namedtuple\n",
        "import dataclasses\nfrom collections import namedtuple\n",
        ("tests/test_package.py::TestCliImports",),
    ),
    Mutant(
        "lazy-name-returns-the-submodule",
        "src/aritygap/__init__.py",
        "loaded if name == module else getattr(loaded, name)",
        "loaded",
        ("tests/test_package.py::TestPackageSurface",),
    ),
    Mutant(
        "compare-reports-keys-not-values",
        "scripts/compare.py",
        "elif not _untimed(report).items() <= now.items():",
        "elif not _untimed(report).keys() <= now.keys():",
        ("tests/test_compare.py::test_each_difference_is_one_line_that_names_it[changed-checked]",),
    ),
    Mutant(
        "compare-empty-base-passes",
        "scripts/compare.py",
        'return ["REV gave no sweep report"]',
        "return []",
        ("tests/test_compare.py::test_each_difference_is_one_line_that_names_it[empty-base]",),
    ),
    Mutant(
        "compare-skips-worker-comparison",
        "scripts/compare.py",
        "lines += worker_differences(_reports(one), _reports(head[TWO]))",
        "lines += []",
        ("tests/test_compare.py::test_each_difference_is_one_line_that_names_it[one-and-two-workers-differ]",),
    ),
    Mutant(
        "compare-sweep-lines-keep-elapsed",
        "scripts/compare.py",
        "(code, _untimed_stdout(out), err)",
        "(code, out, err)",
        ("tests/test_compare.py::test_a_sweep_line_is_compared_but_for_elapsed_s",),
    ),
    Mutant(
        "pairs-summary-swaps-base-and-change",
        "scripts/pairs.py",
        'metric_summary(values("base", m["name"]), values("change", m["name"]),',
        'metric_summary(values("change", m["name"]), values("base", m["name"]),',
        ("tests/test_pairs.py::test_the_change_is_the_second_side_of_every_figure",),
    ),
    Mutant(
        "oracles-import-the-package",
        "tests/oracles.py",
        "from itertools import product\n",
        "from itertools import product\n\nfrom aritygap.core import pack\n",
        ("tests/test_oracles_independent.py",),
    ),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out",
                                 ".bench_build", "*.egg-info")


def mutated(text: str, mutant: Mutant) -> str:
    """text with the mutant's edit applied; ValueError unless its old text occurs once."""
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def _pytest(copy: Path, selection) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant, workdir: Path) -> dict:
    """Apply one mutant to a fresh copy of the repository and run its selection."""
    copy = workdir / mutant.name
    shutil.copytree(ROOT, copy, ignore=_IGNORE)
    try:
        path = copy / mutant.file
        try:
            path.write_text(mutated(path.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        except ValueError as exc:
            return {"outcome": "error", "returncode": None, "detail": str(exc)}
        code = _pytest(copy, mutant.selection)
        outcome = {0: "survived", 1: "killed"}.get(code, "error")
        return {"outcome": outcome, "returncode": code}
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", action="store_true", help="print one JSON report")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only the named mutants")
    args = parser.parse_args()
    unknown = sorted(set(args.only or ()) - {m.name for m in MUTANTS})
    if unknown:
        parser.error(f"no catalogued mutant named {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]

    with tempfile.TemporaryDirectory(prefix="aritygap-mutants-") as tmp:
        workdir = Path(tmp)
        clean = workdir / "clean"
        shutil.copytree(ROOT, clean, ignore=_IGNORE)
        selections = list(dict.fromkeys(s for m in chosen for s in m.selection))
        clean_code = _pytest(clean, selections)
        shutil.rmtree(clean, ignore_errors=True)
        results = []
        if clean_code == 0:
            for m in chosen:
                results.append({"name": m.name, "file": m.file, "selection": list(m.selection), **run(m, workdir)})
                if not args.json:
                    r = results[-1]
                    print(f"{r['outcome']:<9} {m.name:<34} {m.file}", flush=True)

    all_killed = clean_code == 0 and all(r["outcome"] == "killed" for r in results)
    if args.json:
        print(json.dumps({"clean_returncode": clean_code, "mutants": results, "all_killed": all_killed}, indent=1))
    elif clean_code != 0:
        print(f"the unmutated selections fail (pytest exit {clean_code}); no mutant was run")
    else:
        print(f"{sum(r['outcome'] == 'killed' for r in results)}/{len(results)} killed")
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main())
