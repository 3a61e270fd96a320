"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy sweeps (criteria 1, 2 and 5) go through the verifier's
partitioned driver, so they use every available core; all numbers,
seeds and tolerances are pinned here.
"""

import functools
import math
import time

from aritygap import (
    Exhaustive,
    LiftSpec,
    QuasiLinearSpec,
    Sampled,
    SplitMix64,
    TheoremId,
    ess,
    essential_vars,
    from_anf,
    gap_report,
    identify,
    is_essential,
    lift,
    make_function,
    occurs,
    quasi_linear,
    random_function,
    substream_seed,
    sweep,
    to_anf,
)

from oracles import max_ess_over_strict_minors, naive_anf_monomials, naive_anf_monomials_packed


def criterion(cid, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {cid:2d}] FAIL  {summary}")
                raise
            print(f"[criterion {cid:2d}] PASS  {summary}" + (f" ({detail})" if detail else ""))

        return wrapper

    return deco


@criterion(1, "gap classifier equals brute force on every Boolean table of arity <= 4")
def test_criterion_01_classifier_exhaustive():
    start = time.perf_counter()
    reports = [sweep(TheoremId.THM_STR, Exhaustive(2, 2, n)) for n in (2, 3, 4)]
    elapsed = time.perf_counter() - start
    for r in reports:
        assert r.violation_count == 0, r.to_dict()
    assert reports[-1].checked + reports[-1].skipped == 65536
    assert elapsed < 10.0, f"exhaustive classifier sweep took {elapsed:.1f}s"
    return f"{sum(r.checked for r in reports)} functions, {elapsed:.1f}s"


@criterion(2, "gap classifier equals brute force on 100000 samples each at arity 5 and 6")
def test_criterion_02_classifier_sampled():
    start = time.perf_counter()
    r5 = sweep(TheoremId.THM_STR, Sampled(2, 2, 5, 100000, seed=20250805, reject_until_hypothesis=True))
    r6 = sweep(TheoremId.THM_STR, Sampled(2, 2, 6, 100000, seed=20250806, reject_until_hypothesis=True))
    elapsed = time.perf_counter() - start
    for r in (r5, r6):
        assert r.violation_count == 0, r.to_dict()
        assert r.checked == 100000 and r.skipped == 0
    assert elapsed < 120.0, f"sampled classifier sweep took {elapsed:.1f}s"
    return f"200000 samples, {elapsed:.1f}s"


@criterion(3, "Boolean gap is always 1 or 2, exhaustively for arities 2 to 4")
def test_criterion_03_boolean_bound_exhaustive():
    checked = 0
    for n in (2, 3, 4):
        r = sweep(TheoremId.THM_SALOMAA_MAIN, Exhaustive(2, 2, n))
        assert r.violation_count == 0, r.to_dict()
        assert r.checked + r.skipped == 2 ** (2**n)
        checked += r.checked
    return f"{checked} functions"


@criterion(4, "gap <= k on 10000 sampled k=3 operations with ess = 4")
def test_criterion_04_gap_bound_sampled():
    r = sweep(TheoremId.THM_GEN, Sampled(3, 3, 4, 10000, seed=42, reject_until_hypothesis=True))
    assert r.violation_count == 0, r.to_dict()
    assert r.checked == 10000 and r.skipped == 0
    return "10000 samples, all gap <= 3"


@criterion(5, "every degree-2 polynomial on <= 6 variables with ess >= 4 has gap 1")
def test_criterion_05_degree_two_exhaustive():
    total_checked = 0
    for n in (4, 5, 6):
        r = sweep(TheoremId.LEM_DEG2, Exhaustive(2, 2, n))
        assert r.violation_count == 0, r.to_dict()
        # Nonzero quadratic parts times linear parts times constants.
        assert r.checked + r.skipped == (2 ** math.comb(n, 2) - 1) * 2 ** (n + 1)
        total_checked += r.checked
    return f"{total_checked} polynomials"


@criterion(6, "every totally essential Boolean function of arity <= 4 has a totally essential restriction")
def test_criterion_06_restriction_witness_exhaustive():
    checked = 0
    for n in (2, 3, 4):
        r = sweep(TheoremId.THM_SALOMAA_AUX, Exhaustive(2, 2, n))
        assert r.violation_count == 0, r.to_dict()
        checked += r.checked
    return f"{checked} functions"


@criterion(7, "some variable among the first k+1 survives one of their identifications (arity 3 and 4)")
def test_criterion_07_kplus1_lemma_exhaustive():
    checked = 0
    for n in (3, 4):
        r = sweep(TheoremId.LEM_KPLUS1, Exhaustive(2, 2, n))
        assert r.violation_count == 0, r.to_dict()
        checked += r.checked
    return f"{checked} functions"


def _minors_all_constant(f):
    ev = essential_vars(f)
    return all(ess(identify(f, i, j)) == 0 for i in ev for j in ev if i != j)


@criterion(8, "total-collapse witnesses exist at (2,2), (3,2) and (3,3)")
def test_criterion_08_total_collapse_witnesses():
    r = sweep(TheoremId.THM1, Exhaustive(2, 2, 2), max_recorded=16)
    tables = {f.table for f in r.witnesses}
    assert r.exhaustive
    assert (0, 1, 1, 0) in tables, "xor missing"
    assert (1, 0, 0, 1) in tables, "xnor missing"

    counts = {}
    for k, n in ((3, 2), (3, 3)):
        # Recording up to the whole space records every witness.
        r = sweep(TheoremId.THM1, Exhaustive(k, k, n), max_recorded=3**9)
        assert len(r.witnesses) >= 1
        for f in r.witnesses:
            assert ess(f) == n
            assert _minors_all_constant(f)
        counts[(k, n)] = len(r.witnesses)
    return f"(3,2): {counts[(3, 2)]} witnesses, (3,3): {counts[(3, 3)]} witnesses"


@criterion(9, "500 quasi-linear functions with coinciding nonconstant h maps all have gap 2")
def test_criterion_09_quasi_linear_law():
    rng = SplitMix64(20250809)
    for case in range(500):
        k = 2 + rng.below(3)
        n = 2 + rng.below(3)
        while True:
            h = tuple(rng.below(2) for _ in range(k))
            if len(set(h)) == 2:
                break
        m = 2 + rng.below(n - 1) if n > 2 else 2
        slots = list(range(n))
        for pos in range(m):  # partial Fisher-Yates for the nonconstant slots
            swap = pos + rng.below(n - pos)
            slots[pos], slots[swap] = slots[swap], slots[pos]
        nonconstant = set(slots[:m])
        h_maps = tuple(
            h if t in nonconstant else (rng.below(2),) * k for t in range(n)
        )
        g0 = rng.below(k)
        while True:
            g1 = rng.below(k)
            if g1 != g0:
                break
        f = quasi_linear(QuasiLinearSpec(k, n, h_maps, (g0, g1)))
        assert ess(f) == m, f"case {case}: ess {ess(f)} != {m}"
        assert gap_report(f).gap == 2, f"case {case}: gap != 2"
    return "500 specs at k in 2..4, n in 2..4"


@criterion(10, "500 lifted operations preserve ess always and gap whenever defined")
def test_criterion_10_lift_law():
    rng = SplitMix64(20250810)
    gap_checked = 0
    for case in range(500):
        k = 2 + rng.below(2)
        n = 1 + rng.below(3)
        f = random_function(k, k, n, seed=rng.next_u64())
        size_b = k + rng.below(6 - k)
        while True:
            gamma = tuple(rng.below(k) for _ in range(size_b))
            if set(gamma) == set(range(k)):
                break
        phi = []
        while len(phi) < k:
            v = rng.below(size_b)
            if v not in phi:
                phi.append(v)
        g = lift(LiftSpec(f, gamma=gamma, phi=tuple(phi)))
        assert ess(g) == ess(f), f"case {case}: ess not preserved"
        if ess(f) >= 2:
            assert gap_report(g).gap == gap_report(f).gap, f"case {case}: gap not preserved"
            gap_checked += 1
    return f"500 lifts, gap compared on {gap_checked}"


@criterion(11, "butterfly transform matches the subset-sum oracle, round-trips, occurs = essential")
def test_criterion_11_anf_engine():
    # All tables of arity <= 4 against the packed subset-sum oracle.
    for n in (1, 2, 3, 4):
        for code in range(2 ** (2**n)):
            table = tuple((code >> (2**n - 1 - row)) & 1 for row in range(2**n))
            f = make_function(2, 2, n, table)
            p = to_anf(f)
            assert p.monomials == naive_anf_monomials_packed(f)
            assert from_anf(p) == f
            for i in range(1, n + 1):
                assert occurs(p, i) == is_essential(f, i)
    # Random arity-6 tables against both oracle formulations.
    for i in range(10000):
        f = random_function(2, 2, 6, seed=substream_seed(20250811, i))
        p = to_anf(f)
        assert p.monomials == naive_anf_monomials_packed(f)
        assert from_anf(p) == f
    for i in range(50):
        f = random_function(2, 2, 6, seed=substream_seed(20250812, i))
        assert naive_anf_monomials(f) == naive_anf_monomials_packed(f)
    return "65812 exhaustive tables, 10000 random arity-6 tables"


@criterion(12, "single identifications reach the same essl as all strict substitution minors (arity <= 3)")
def test_criterion_12_essl_definition_fidelity():
    compared = 0
    for n in (2, 3):
        for code in range(2 ** (2**n)):
            table = tuple((code >> (2**n - 1 - row)) & 1 for row in range(2**n))
            f = make_function(2, 2, n, table)
            if ess(f) < 2:
                continue
            assert gap_report(f).essl == max_ess_over_strict_minors(f)
            compared += 1
    return f"{compared} functions"
