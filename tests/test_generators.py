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
from aritygap.core import field_width
import aritygap.generators as generators
from aritygap.generators import _BLOCK, random_lanes

from oracles import naive_random_table

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
    @pytest.mark.parametrize("b", [1, 2, 3, 4, 8, 10, 256, 2**63 + 1, 2**64, 2**65])
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
# powers of two in shared passes; b = 2**63 + 1, which rejects about half of
# the outputs, so nearly every shared pass falls back to drawing its tables
# alone; 2**64, the widest shared b; 2**65, drawn row by row; k = 1; and
# tables over 1,024 rows, drawn alone.
LANE_SHAPES = [(2, 2, n) for n in range(1, 12)] + [
    (3, 3, 2), (3, 3, 4), (3, 10, 3), (2, 10, 6), (5, 3, 4), (4, 4, 5), (2, 16, 6),
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
    tables = [block >> 2 * m * bits & (1 << 2 * bits) - 1 for m in range(count)]
    assert all(t >> bits == 0 for t in tables) and block >> 2 * count * bits == 0
    return tables


class TestRandomLanes:
    @pytest.mark.parametrize("shape", LANE_SHAPES, ids=lambda s: "k{}-b{}-n{}".format(*s))
    def test_lanes_are_the_tables_random_function_and_the_oracle_draw(self, shape):
        # Two full shared passes and a partial one (or, drawn alone, one
        # table after another), and seeds outside [0, 2**64).
        k, b, n = shape
        per = max(1, _BLOCK // k**n)
        seeds = [substream_seed(11, i) for i in range(2 * per + 3)] + [2**64, 2**64 + 5, 2**70 + 3, -1]
        tables = _lane_tables(k, b, n, random_lanes(k, b, n, seeds), len(seeds))
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
        tables = _lane_tables(k, b, n, random_lanes(k, b, n, seeds), len(seeds))
        assert tables == [make_function(k, b, n, naive_random_table(k, b, n, s)).bits for s in seeds]

    @pytest.mark.parametrize("b, shared", [(3, True), (2**64 - 2**54 + 1, True), (2**64 - 2**54, False),
                                           (2**63 + 1, False)], ids=["3", "2^64-2^54+1", "2^64-2^54", "2^63+1"])
    def test_a_pass_is_shared_only_while_it_expects_under_one_rejection(self, monkeypatch, b, shared):
        passes = []  # (tables, entries kept) per _block_text pass
        real = generators._block_text

        def spy(bases, *args):
            text, kept = real(bases, *args)
            passes.append((len(bases), kept))
            return text, kept

        monkeypatch.setattr(generators, "_block_text", spy)
        seeds = [substream_seed(3, i) for i in range(40)]
        tables = _lane_tables(3, b, 2, random_lanes(3, b, 2, seeds), len(seeds))
        assert tables == [make_function(3, b, 2, naive_random_table(3, b, 2, s)).bits for s in seeds]
        if shared:
            assert passes[0][0] == len(seeds)
        else:
            # Each table drawn alone: every entry a pass keeps lands in a table.
            assert {n for n, _ in passes} == {1} and sum(kept for _, kept in passes) == 9 * len(seeds)

    def test_shape_is_checked_before_drawing(self):
        assert random_lanes(3, 3, 3, []) == 0
        for shape in ((2, 2, 0), (0, 2, 2), (2, 0, 2), (-1, 3, 2)):
            with pytest.raises(ValueOutOfRange, match="must be >= 1"):
                random_lanes(*shape, [1])
        with pytest.raises(BudgetExceeded):
            random_lanes(2, 2, 12, [1], budget=1 << 11)
        with pytest.raises(BudgetExceeded):
            random_lanes(3, 5, 8, [1], budget=3**7)


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
