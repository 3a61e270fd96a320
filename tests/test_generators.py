import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from aritygap import (
    Exhaustive,
    LiftSpec,
    QuasiLinearSpec,
    Sampled,
    SplitMix64,
    TheoremId,
    ess,
    essential_vars,
    gap_report,
    identify,
    lift,
    make_function,
    quasi_linear,
    random_function,
    substream_seed,
    sweep,
)
from aritygap.errors import (
    BudgetExceeded,
    EssentialArityTooSmall,
    GammaNotSurjective,
    PhiNotInjective,
    SpecInvalid,
    ValueOutOfRange,
)
from aritygap.core import _lane_width, field_width
import aritygap.generators as generators
from aritygap.generators import _BLOCK, random_lanes

from oracles import SplitMix64Stream, lane_seeds, naive_random_table, seed_lanes

XOR = make_function(2, 2, 2, [0, 1, 1, 0])

# Reference outputs of the SplitMix64 stream for seed 0, as published with
# the original algorithm; guards both the finalizer and the counter step.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


class TestSplitMix64:
    def test_reference_sequence(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == SPLITMIX64_SEED0

    def test_substream_seed_is_stream_output(self):
        stream = SplitMix64(97)
        outputs = [stream.next_u64() for _ in range(6)]
        for i, expected in enumerate(outputs):
            assert substream_seed(97, i) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5, -1])
    @pytest.mark.parametrize("start", [0, 2**64 - 3, 2**70], ids=["0", "wraps", "2^70"])
    @pytest.mark.parametrize("count", [1, 7, _BLOCK])
    def test_seeds_mixed_in_lanes_are_the_substream_seeds(self, seed, start, count):
        # Counters from 2**64 - 3 on wrap past 2**64 within the block.
        seeds = [substream_seed(seed, i) for i in range(start, start + count)]
        assert generators._substream_seeds(seed, start, count, False) == seed_lanes(seeds)
        assert generators._substream_seeds(seed, start, count, True) == seed_lanes([substream_seed(s, 0) for s in seeds])

    def test_below_range_and_determinism(self):
        a = SplitMix64(5)
        b = SplitMix64(5)
        for bound in (2, 3, 7, 100, 2**64 + 1, 5**61):
            va = [a.below(bound) for _ in range(50)]
            vb = [b.below(bound) for _ in range(50)]
            assert va == vb
            assert all(0 <= v < bound for v in va)
        assert any(v >= 1 << 64 for v in va)

    @pytest.mark.parametrize("bound", [0, -1, -3, -(2**70)])
    def test_below_refuses_an_empty_range_before_drawing(self, bound):
        rng = SplitMix64(1)
        with pytest.raises(ValueOutOfRange, match=f"bound must be >= 1, got {bound}"):
            rng.below(bound)
        assert rng.next_u64() == SplitMix64(1).next_u64()

    def test_below_reads_wide_candidates_most_significant_first(self):
        # 5**61 - 1 has 142 bits, so a candidate is three outputs; the
        # threshold rejects with probability below 2**-50.
        words = SplitMix64(8)
        z = (words.next_u64() << 128) | (words.next_u64() << 64) | words.next_u64()
        assert SplitMix64(8).below(5**61) == z % 5**61
        # 7**2000 - 1 has 5,615 bits, so a candidate is 88 outputs; this
        # one is below the threshold, and the draw reads no more outputs.
        twin, z = SplitMix64(9), 0
        for _ in range(88):
            z = z << 64 | twin.next_u64()
        assert z < (1 << 64 * 88) // 7**2000 * 7**2000
        drawn = SplitMix64(9)
        assert drawn.below(7**2000) == z % 7**2000
        assert drawn.next_u64() == twin.next_u64()


class TestRandomFunction:
    def test_deterministic(self):
        assert random_function(2, 2, 3, seed=1) == random_function(2, 2, 3, seed=1)

    def test_golden_tables(self):
        # Frozen reference draws; any change here breaks replay of every
        # seeded sweep.
        assert random_function(2, 2, 3, seed=1).table == (1, 1, 0, 1, 1, 0, 1, 1)
        assert random_function(3, 3, 2, seed=7).table == (0, 0, 0, 0, 1, 0, 1, 0, 2)

    def test_entries_in_range(self):
        f = random_function(3, 3, 2, seed=7)
        assert len(f.table) == 9
        assert all(0 <= v < 3 for v in f.table)

    def test_many_seeds_valid(self):
        for seed in range(1, 101):
            f = random_function(2, 2, 2, seed=seed)
            assert len(f.table) == 4
            assert all(v in (0, 1) for v in f.table)

    def test_seeds_differ(self):
        tables = {random_function(2, 2, 4, seed=s).table for s in range(20)}
        assert len(tables) > 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            random_function(2, 2, 30, seed=0)

    def test_validation(self):
        with pytest.raises(ValueOutOfRange):
            random_function(0, 2, 2, seed=0)

    def test_powers_of_two_above_2_64_read_two_words(self):
        f = random_function(2, 2**65, 3, seed=5)
        stream = SplitMix64(5)
        assert f.table == tuple(stream.below(2**65) for _ in range(8))
        assert max(f.table) >= 2**64


# Shapes (k, n): k in {2, 3}, then 1 row, one row under a block, exactly one
# block, one row over, and several blocks with a partial last one.
ORACLE_SHAPES = [(2, 3), (3, 2), (1, 1), (_BLOCK - 1, 1), (_BLOCK, 1), (_BLOCK + 1, 1), (3, 7)]


class TestRandomFunctionOracle:
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    @pytest.mark.parametrize("b", [1, 2, 3, 4, 8, 10, 32, 64, 256, 2**63 + 1, 2**64, 2**65])
    def test_table_is_below_b_drawn_row_by_row(self, b, shape):
        k, n = shape
        for seed in (0, 2**64 - 1, 2**64 + 5, -1):
            assert random_function(k, b, n, seed).table == naive_random_table(k, b, n, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(1, 5),
        b=st.one_of(st.integers(1, 300), st.integers(0, 70).map(lambda e: 2**e)),
        seed=st.integers(-(2**70), 2**70),
    )
    def test_any_shape_and_seed(self, k, n, b, seed):
        assert random_function(k, b, n, seed).table == naive_random_table(k, b, n, seed)


# (k, b, n): Boolean arities on both sides of one pass; b = 3, 10 and
# powers of two in shared passes, 32 the widest whose mix is cut to its
# fields' bits and 64 the first mixed whole; b = 2**63 + 1, which rejects
# about half of the outputs, so nearly every shared pass falls back to
# drawing its tables alone; 2**64, the widest shared b; 2**65, drawn row by
# row; k = 1; and tables over 1,024 rows, drawn alone.
LANE_SHAPES = [(2, 2, n) for n in range(1, 12)] + [
    (3, 3, 2), (3, 3, 4), (3, 10, 3), (2, 10, 6), (5, 3, 4), (4, 4, 5), (2, 16, 6), (2, 32, 6), (2, 64, 6),
    (3, 2**63 + 1, 2), (2, 2**63 + 1, 5), (3, 2**64, 3), (2, 2**65, 3),
    # The most often rejecting b whose passes are still shared (about one in 1,024 outputs).
    (3, 2**64 - 2**54 + 1, 2), (2, 2**64 - 2**54 + 1, 5),
    (1, 1, 1), (1, 3, 4), (1, 2**63 + 1, 2), (2, 1, 3),
    (3, 3, 7), (2, 10, 11), (2, 2**63 + 1, 11), (2, 2**65, 11),
]


def _lane_tables(k, b, n, block, count):
    """The count tables in the lanes of a random_lanes block, after checking
    that each lane's padding and every bit above the last lane are zero."""
    bits = k**n * field_width(b)
    width = _lane_width(bits)
    tables = [block >> m * width & (1 << width) - 1 for m in range(count)]
    assert all(t >> bits == 0 for t in tables) and block >> count * width == 0
    return tables


class TestRandomLanes:
    @pytest.mark.parametrize("shape", LANE_SHAPES, ids=lambda s: "k{}-b{}-n{}".format(*s))
    def test_lanes_are_the_tables_random_function_and_the_oracle_draw(self, shape):
        # Two full shared passes and a partial one (or, drawn alone, one
        # table after another), and seeds outside [0, 2**64).
        k, b, n = shape
        per = max(1, _BLOCK // k**n)
        seeds = [substream_seed(11, i) for i in range(2 * per + 3)] + [2**64, 2**64 + 5, 2**70 + 3, -1]
        tables = _lane_tables(k, b, n, random_lanes(k, b, n, seed_lanes(seeds), len(seeds)), len(seeds))
        for seed, table in zip(seeds, tables):
            assert table == random_function(k, b, n, seed).bits
            assert table == make_function(k, b, n, naive_random_table(k, b, n, seed)).bits

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 4),
        n=st.integers(1, 4),
        b=st.one_of(st.integers(1, 300), st.integers(0, 66).map(lambda e: 2**e),
                    st.sampled_from([2**63 + 1, 3 << 62, 2**64 - 2**54 + 1, 2**64 - 1, 2**64 + 1])),
        seeds=st.lists(st.integers(-(2**70), 2**70), max_size=40),
    )
    def test_any_shape_and_seeds(self, k, n, b, seeds):
        tables = _lane_tables(k, b, n, random_lanes(k, b, n, seed_lanes(seeds), len(seeds)), len(seeds))
        assert tables == [make_function(k, b, n, naive_random_table(k, b, n, s)).bits for s in seeds]

    @pytest.mark.parametrize("b, shared", [(3, True), (2**64 - 2**54 + 1, True), (2**64 - 2**54, False),
                                           (2**63 + 1, False)], ids=["3", "2^64-2^54+1", "2^64-2^54", "2^63+1"])
    def test_a_pass_is_shared_only_while_it_expects_under_one_rejection(self, monkeypatch, b, shared):
        passes = []  # (tables, entries kept) per _pass
        real = generators._pass

        def spy(seeds, g, *args):
            texts, kept = real(seeds, g, *args)
            passes.append((g, kept))
            return texts, kept

        monkeypatch.setattr(generators, "_pass", spy)
        seeds = [substream_seed(3, i) for i in range(40)]
        tables = _lane_tables(3, b, 2, random_lanes(3, b, 2, seed_lanes(seeds), len(seeds)), len(seeds))
        assert tables == [make_function(3, b, 2, naive_random_table(3, b, 2, s)).bits for s in seeds]
        if shared:
            assert passes[0][0] == len(seeds)
        else:
            # Each table drawn alone: every entry a pass keeps lands in a table.
            assert {n for n, _ in passes} == {1} and sum(kept for _, kept in passes) == 9 * len(seeds)

    def test_seeds_at_both_ends_of_the_64_bit_range(self):
        # Seed 2**64 - 1 plus GOLDEN carries past bit 64 inside its lane.
        seeds = [0, 2**64 - 1, 2**64 - generators.GOLDEN, 2**64 - 1, 0] * 4
        for k, b, n in ((2, 2, 6), (3, 3, 2), (2, 16, 4), (2, 2**64 - 2**54 + 1, 5)):
            tables = _lane_tables(k, b, n, random_lanes(k, b, n, seed_lanes(seeds), len(seeds)), len(seeds))
            assert tables == [make_function(k, b, n, naive_random_table(k, b, n, s)).bits for s in seeds]

    @pytest.mark.parametrize("rows", [1, 3, 9])
    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_mixed_lanes_of_row_counts_the_doubling_overshoots(self, rows, g):
        # Lane j * g + i holds output j of seed i, and no lane lies past rows * g.
        seeds = [2**64 - 1, 0, 5, 2**63, 77][:g]
        z, lanes = generators._mixed(seed_lanes(seeds), g, rows)
        streams = [SplitMix64Stream(s) for s in seeds]
        expected = [stream.next() for _ in range(rows) for stream in streams]
        assert z & lanes == seed_lanes(expected) and lanes == seed_lanes([2**64 - 1] * (rows * g))
        assert z >> 128 * rows * g == 0
        # Whole draws of tables of 1, 3 and 9 rows.
        for k, b, n in ((1, 3, 4), (3, 2, 1), (3, 5, 2), (3, 2, 2)):
            if k**n == rows:
                tables = _lane_tables(k, b, n, random_lanes(k, b, n, seed_lanes(seeds), g), g)
                assert tables == [make_function(k, b, n, naive_random_table(k, b, n, s)).bits for s in seeds]

    def test_a_group_that_ends_mid_pass(self, monkeypatch):
        # 21 Boolean tables of 64 rows: a full pass of 16, then one of 5.
        passes, real = [], generators._pass

        def spy(seeds, g, *args):
            passes.append(g)
            return real(seeds, g, *args)

        monkeypatch.setattr(generators, "_pass", spy)
        seeds = [substream_seed(12, i) for i in range(21)]
        tables = _lane_tables(2, 2, 6, random_lanes(2, 2, 6, seed_lanes(seeds), len(seeds)), len(seeds))
        assert passes == [16, 5]
        assert tables == [make_function(2, 2, 6, naive_random_table(2, 2, 6, s)).bits for s in seeds]

    def test_a_shared_pass_that_rejects_falls_back_table_by_table(self, monkeypatch):
        # b = 2**64 - 2**54 + 1 rejects one output in 1,024: the first group
        # of 32 seeds whose shared pass rejects is drawn again one table at a time.
        b, passes, real = 2**64 - 2**54 + 1, [], generators._pass

        def spy(seeds, g, *args):
            texts, kept = real(seeds, g, *args)
            passes.append((g, kept))
            return texts, kept

        monkeypatch.setattr(generators, "_pass", spy)
        for base in range(20):
            passes.clear()
            seeds = [substream_seed(base, i) for i in range(32)]
            block = random_lanes(2, b, 5, seed_lanes(seeds), 32)
            if passes[0][1] < 32 * 32:
                break
        assert passes[0][0] == 32 and passes[0][1] < 32 * 32
        assert {g for g, _ in passes[1:]} == {1} and sum(kept for _, kept in passes[1:]) == 32 * 32
        tables = _lane_tables(2, b, 5, block, 32)
        assert tables == [make_function(2, b, 5, naive_random_table(2, b, 5, s)).bits for s in seeds]

    def test_a_boolean_block_is_one_mix_of_1024_lanes(self, monkeypatch):
        # 16 tables of 64 rows: one _low_bits call over 1,024 64-bit lanes,
        # and no 128-bit mix.
        seeds = [substream_seed(4, i) for i in range(16)]
        mixes, real = [], generators._low_bits

        def spy(lanes, g, rows):
            mixes.append(g * rows)
            return real(lanes, g, rows)

        monkeypatch.setattr(generators, "_low_bits", spy)
        monkeypatch.setattr(generators, "_mix_lanes", None)
        block = random_lanes(2, 2, 6, seed_lanes(seeds), 16)
        assert mixes == [1024]
        monkeypatch.undo()
        tables = _lane_tables(2, 2, 6, block, 16)
        assert tables == [make_function(2, 2, 6, naive_random_table(2, 2, 6, s)).bits for s in seeds]

    @pytest.mark.parametrize("g", [1, 3, 16])
    @pytest.mark.parametrize("rows", [1, 2, 3, 64, 1024])
    def test_boolean_lanes_are_the_low_bits_of_the_oracle_stream(self, g, rows):
        # Seeds at the carry edges (0, 2**64 - 1 and 2**64 - GOLDEN, whose
        # first counter wraps to 0), each in lane 0 of some group, and random ones.
        edges = [0, 2**64 - 1, 2**64 - generators.GOLDEN]
        pool = edges + [substream_seed(rows, i) for i in range(g)]
        for seeds in [pool[r : r + g] for r in range(3)] if g < 16 else [pool[:g]]:
            streams = [SplitMix64Stream(s) for s in seeds]
            low = [stream.next() & 1 for _ in range(rows) for stream in streams]
            z = generators._low_bits(sum(s << 64 * i for i, s in enumerate(seeds)), g, rows)
            assert [z >> 64 * m & 1 for m in range(rows * g)] == low and z >> 64 * rows * g == 0
            for b in (1, 2):
                texts, kept = generators._pass(seed_lanes(seeds), g, rows, b, 1)
                assert kept == rows * g
                assert texts == ["".join(str(bit * (b - 1)) for bit in low[i::g]) for i in range(g)]

    @pytest.mark.parametrize("b", [1, 2])
    def test_a_boolean_table_over_1024_rows_is_drawn_alone(self, b):
        # 4,096 rows: four passes of one table, each 1,024 counters on; the
        # last two seeds put the second pass's seed and first counter at 0.
        golden = generators.GOLDEN
        for seed in (0, 2**64 - 1, 2**64 - golden, 9, -1024 * golden % 2**64, -1025 * golden % 2**64):
            assert random_function(2, b, 12, seed).table == naive_random_table(2, b, 12, seed)

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 6, 64])
    def test_a_mix_cut_to_w_bits_is_the_low_w_bits_of_the_whole_mix(self, w):
        # Inputs at the carry edges (0, 2**64 - 1 and 2**64 - GOLDEN, which
        # plus GOLDEN wraps to 0) and random ones, mixed alone and in passes.
        edges = [0, 2**64 - 1, 2**64 - generators.GOLDEN]
        values = edges * 3 + [substream_seed(w, i) for i in range(55)]
        low = (1 << w) - 1
        masks = generators._lanes(len(values), 1, 128, (64, min(64, w + 58), min(64, w + 31)))[1]
        cut = generators._mix_lanes(seed_lanes(values), masks, w)
        whole = [SplitMix64Stream((v - generators.GOLDEN) % 2**64).next() for v in values]
        assert [x & low for x in lane_seeds(cut, len(values))] == [x & low for x in whole]
        for rows, g in ((1, 64), (9, 7), (64, 16)):
            seeds = (edges + values)[:g]
            z, _ = generators._mixed(seed_lanes(seeds), g, rows, w)
            streams = [SplitMix64Stream(s) for s in seeds]
            expected = [stream.next() & low for _ in range(rows) for stream in streams]
            assert [x & low for x in lane_seeds(z, rows * g)] == expected

    def test_shape_is_checked_before_drawing(self):
        assert random_lanes(3, 3, 3, 0, 0) == 0
        for shape in ((2, 2, 0), (0, 2, 2), (2, 0, 2), (-1, 3, 2)):
            with pytest.raises(ValueOutOfRange, match="must be >= 1"):
                random_lanes(*shape, 1, 1)
        with pytest.raises(BudgetExceeded):
            random_lanes(2, 2, 12, 1, 1, budget=1 << 11)
        with pytest.raises(BudgetExceeded):
            random_lanes(3, 5, 8, 1, 1, budget=3**7)


def test_largest_boolean_draw_in_bounded_memory():
    # 2**24 rows is the most the default budget admits.
    def limit_address_space():
        # Applies in the child only, between fork and exec.
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    code = (
        "from aritygap import random_function\n"
        "f = random_function(2, 2, 24, 0)\n"
        "print(f.bits.bit_length(), f.bits.bit_count(), hex(f.bits >> (1 << 24) - 64))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            preexec_fn=limit_address_space, timeout=120)
    assert result.returncode == 0, result.stderr
    length, ones, prefix = result.stdout.split()
    assert int(length) <= 1 << 24
    assert int(ones) == 8390894
    # Rows 0..63, the first 64 draws of the seed-0 stream.
    prefix_rows = format(int(prefix, 16), "064b")
    assert tuple(map(int, prefix_rows)) == naive_random_table(2, 2, 6, 0)
    assert prefix == "0xaaaf8cc37f17ad9b"


class TestQuasiLinear:
    def test_identity_maps_give_xor(self):
        spec = QuasiLinearSpec(2, 2, ((0, 1), (0, 1)), (0, 1))
        assert quasi_linear(spec) == XOR

    def test_ternary_parity_of_parities(self):
        h = (0, 1, 0)
        spec = QuasiLinearSpec(3, 3, (h, h, h), (0, 1))
        f = quasi_linear(spec)
        assert len(f.table) == 27
        r = gap_report(f)
        assert (r.ess, r.gap) == (3, 2)

    def test_constant_h_kills_variable(self):
        spec = QuasiLinearSpec(2, 2, ((0, 0), (0, 1)), (0, 1))
        f = quasi_linear(spec)
        assert f.table == (0, 1, 0, 1)
        assert essential_vars(f) == (2,)

    def test_spec_validation(self):
        with pytest.raises(SpecInvalid):
            quasi_linear(QuasiLinearSpec(2, 2, ((0, 1),), (0, 1)))
        with pytest.raises(SpecInvalid):
            quasi_linear(QuasiLinearSpec(2, 2, ((0, 2), (0, 1)), (0, 1)))
        with pytest.raises(SpecInvalid):
            quasi_linear(QuasiLinearSpec(2, 2, ((0, 1), (0, 1)), (0, 2)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gap_two_law(self, data):
        """Coinciding nonconstant h maps (at least two) plus injective g
        always give arity gap 2."""
        k = data.draw(st.integers(2, 4), label="k")
        n = data.draw(st.integers(2, 4), label="n")
        h = tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k), label="h"))
        if len(set(h)) < 2:
            return
        m = data.draw(st.integers(2, n), label="nonconstant count")
        positions = data.draw(
            st.permutations(range(n)).map(lambda p: sorted(p[:m])), label="positions"
        )
        const = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        h_maps = tuple(
            h if t in positions else (const[t],) * k for t in range(n)
        )
        g_vals = data.draw(st.permutations(range(k)), label="g")
        spec = QuasiLinearSpec(k, n, h_maps, (g_vals[0], g_vals[1]))
        f = quasi_linear(spec)
        assert ess(f) == m
        assert gap_report(f).gap == 2

    def test_single_nonconstant_h_leaves_gap_undefined(self):
        # Outside the stated hypothesis: one essential variable only.
        spec = QuasiLinearSpec(2, 3, ((0, 1), (0, 0), (1, 1)), (0, 1))
        f = quasi_linear(spec)
        assert ess(f) == 1
        with pytest.raises(EssentialArityTooSmall):
            gap_report(f)


class TestLift:
    def test_xor_to_three_elements(self):
        spec = LiftSpec(XOR, gamma=(0, 1, 0), phi=(0, 1))
        g = lift(spec)
        assert (g.k, g.b, g.n) == (3, 3, 2)
        assert len(g.table) == 9
        r = gap_report(g)
        assert (r.ess, r.gap) == (2, 2)

    def test_identity_lift_is_f(self):
        spec = LiftSpec(XOR, gamma=(0, 1), phi=(0, 1))
        assert lift(spec) == XOR

    def test_majority_lift(self):
        maj = make_function(2, 2, 3, [0, 0, 0, 1, 0, 1, 1, 1])
        g = lift(LiftSpec(maj, gamma=(1, 0, 1), phi=(2, 0)))
        r = gap_report(g)
        assert (r.ess, r.gap) == (3, 2)

    def test_gamma_must_cover(self):
        with pytest.raises(GammaNotSurjective):
            lift(LiftSpec(XOR, gamma=(0, 0, 0), phi=(0, 1)))

    def test_phi_must_be_injective(self):
        with pytest.raises(PhiNotInjective):
            lift(LiftSpec(XOR, gamma=(0, 1, 1), phi=(2, 2)))

    def test_base_must_be_operation(self):
        base = make_function(2, 3, 1, [0, 2])
        with pytest.raises(SpecInvalid):
            lift(LiftSpec(base, gamma=(0, 1), phi=(0, 1)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_preserves_ess_and_gap(self, data):
        k = data.draw(st.integers(2, 3), label="k")
        n = data.draw(st.integers(1, 3), label="n")
        f = random_function(k, k, n, seed=data.draw(st.integers(0, 10**6), label="seed"))
        size_b = data.draw(st.integers(k, 5), label="|B|")
        tail = [data.draw(st.integers(0, k - 1)) for _ in range(size_b - k)]
        gamma = tuple(data.draw(st.permutations(range(k)), label="gamma base")) + tuple(tail)
        phi_vals = data.draw(st.permutations(range(size_b)), label="phi")
        g = lift(LiftSpec(f, gamma=gamma, phi=tuple(phi_vals[:k])))
        assert ess(g) == ess(f)
        if ess(f) >= 2:
            assert gap_report(g).gap == gap_report(f).gap


def _all_minors_constant(f):
    ev = essential_vars(f)
    for i in ev:
        for j in ev:
            if i != j and ess(identify(f, i, j)) != 0:
                return False
    return True


class TestTotalCollapseWitnesses:
    """Thm1 sweeps: the search mode is the population's first word."""

    def test_boolean_pair_includes_xor_and_xnor(self):
        r = sweep(TheoremId.THM1, Exhaustive(2, 2, 2), max_recorded=16)
        assert r.exhaustive and r.population.startswith("full search")
        tables = {f.table for f in r.witnesses}
        assert (0, 1, 1, 0) in tables
        assert (1, 0, 0, 1) in tables

    def test_three_elements_binary(self):
        r = sweep(TheoremId.THM1, Exhaustive(3, 3, 2), max_recorded=3)
        assert r.exhaustive
        assert len(r.witnesses) >= 1
        for f in r.witnesses:
            assert ess(f) == 2
            assert _all_minors_constant(f)

    def test_three_elements_ternary_uses_diagonal_family(self):
        r = sweep(TheoremId.THM1, Exhaustive(3, 3, 3), max_recorded=3)
        assert r.exhaustive and r.population.startswith("diagonal search")
        assert len(r.witnesses) >= 1
        for f in r.witnesses:
            assert ess(f) == 3
            assert _all_minors_constant(f)

    def test_boolean_ternary_is_empty(self):
        r = sweep(TheoremId.THM1, Exhaustive(2, 2, 3), max_recorded=5)
        assert r.exhaustive
        assert r.witnesses == ()

    def test_sampled_mode_deterministic(self):
        pop = Sampled(4, 4, 2, count=300, seed=11)
        a, b = (sweep(TheoremId.THM1, pop, max_recorded=2)._replace(elapsed_s=0.0) for _ in range(2))
        assert a == b
        assert not a.exhaustive and a.population.startswith("diagonal-sampled search")
        for f in a.witnesses:
            assert ess(f) == 2
            assert _all_minors_constant(f)

    def test_table_budget(self):
        with pytest.raises(BudgetExceeded):
            sweep(TheoremId.THM1, Exhaustive(2, 2, 30))
