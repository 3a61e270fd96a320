"""Exhaustive and sampled sweeps checking each statement of the theory.

Every sweep walks a deterministic population (all tables of a shape, all
degree-2 polynomials, or seeded samples), applies a per-function check
and reports counterexamples.  Populations are indexable, so large sweeps
partition the index range across worker processes and merge chunk
results in order; reports are bit-identical across runs except for the
elapsed time.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass
from enum import Enum

from .classify import gap_via_classifier
from .core import (
    FiniteFunction,
    _essential,
    _identified,
    _layout,
    ess,
    essential_vars,
    field_width,
    from_code,
    gap_report,
)
from .errors import BudgetExceeded, HypothesisNotMet, NotBoolean, NotTotallyEssential, SpecInvalid
from .generators import (
    DEFAULT_BUDGET,
    find_total_collapse_witnesses,
    power_exceeds,
    random_function,
    substream_seed,
)


class TheoremId(Enum):
    THM1 = "Thm1"
    THM_SALOMAA_MAIN = "ThmSalomaaMain"
    THM_GEN = "ThmGen"
    THM_SALOMAA_AUX = "ThmSalomaaAux"
    LEM_KPLUS1 = "LemKplus1"
    THM_STR = "ThmStr"
    LEM_DEG2 = "LemDeg2"


@dataclass(frozen=True)
class Exhaustive:
    """Every table of shape (k, b, n); for LemDeg2, every degree-2
    polynomial on n variables instead."""

    k: int
    b: int
    n: int


@dataclass(frozen=True)
class Sampled:
    """count seeded samples of shape (k, b, n); sample i is drawn from the
    derived stream substream_seed(seed, i).  With reject_until_hypothesis,
    each sample is redrawn until it satisfies the theorem's hypothesis, so
    nothing is skipped."""

    k: int
    b: int
    n: int
    count: int
    seed: int
    reject_until_hypothesis: bool = False


@dataclass(frozen=True)
class SweepReport:
    theorem: TheoremId
    population: str
    checked: int
    skipped: int
    violation_count: int
    violations: tuple[FiniteFunction, ...]
    witnesses: tuple[FiniteFunction, ...]
    exhaustive: bool
    passed: bool
    elapsed_s: float

    def to_dict(self) -> dict:
        return {
            "schema": "aritygap/1",
            "theorem": self.theorem.value,
            "population": self.population,
            "checked": self.checked,
            "skipped": self.skipped,
            "violation_count": self.violation_count,
            "violations": [_function_dict(f) for f in self.violations],
            "witnesses": [_function_dict(f) for f in self.witnesses],
            "exhaustive": self.exhaustive,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
        }


def _function_dict(f: FiniteFunction) -> dict:
    return {"k": f.k, "b": f.b, "n": f.n, "table": list(f.table)}


# ---------------------------------------------------------------------------
# per-function checks
# ---------------------------------------------------------------------------


def check_gap_bound(f: FiniteFunction) -> bool:
    """gap <= k for any function whose essential arity exceeds k."""
    e = ess(f)
    if e <= f.k:
        raise HypothesisNotMet(f"need ess f > k, got ess={e} k={f.k}")
    return gap_report(f).essl >= e - f.k


def check_boolean_bound(f: FiniteFunction) -> bool:
    """gap <= 2 for Boolean functions with ess >= 2."""
    if f.k != 2 or f.b != 2:
        raise NotBoolean(f"needs k = b = 2, got k={f.k} b={f.b}")
    return gap_report(f).gap <= 2


def find_restriction_witness(f: FiniteFunction) -> tuple[int, int] | None:
    """First (j, c), j then c ascending, such that fixing variable j to c
    leaves a function depending on all remaining n - 1 variables.

    None means every restriction was tried without a hit, which would
    contradict the theory; sweeps record that as a violation.
    """
    if f.n < 2 or len(essential_vars(f)) != f.n:
        raise NotTotallyEssential(
            f"need a function of arity >= 2 depending on all variables, ess={ess(f)} n={f.n}"
        )
    masks, strides, lower = _layout(f.k, field_width(f.b), f.n)
    for j in range(f.n):
        rest = [t for t in range(f.n) if t != j]
        for c in range(f.k):
            # Fixing x_j = c keeps x_t iff a row of D_t(0) & D_j(c) differs
            # from the row raising x_t: the table masked to D_j(c) shows that.
            if len(_essential(f.bits & masks[j][c], strides, lower, rest)) == f.n - 1:
                return (j + 1, c)
    return None


def check_kplus1_lemma(f: FiniteFunction) -> tuple[int, int] | None:
    """First pair 1 <= i < j <= k+1 whose identification minor keeps one of
    the first k+1 variables essential; None would contradict the lemma."""
    if f.n <= f.k or len(essential_vars(f)) != f.n:
        raise HypothesisNotMet(
            f"need ess f = arity n > k, got ess={ess(f)} n={f.n} k={f.k}"
        )
    masks, strides, lower = _layout(f.k, field_width(f.b), f.n)
    top = f.k + 1
    for i in range(top):
        for j in range(i + 1, top):
            if _essential(_identified(f.bits, masks, strides[i], i, j), strides, lower, range(top)):
                return (i + 1, j + 1)
    return None


_OK, _SKIP, _VIOL = 0, 1, 2


def _check_one(theorem: TheoremId, f: FiniteFunction) -> int:
    if theorem is TheoremId.THM_STR:
        if len(essential_vars(f)) < 2:
            return _SKIP
        return _OK if gap_via_classifier(f) == gap_report(f).gap else _VIOL
    if theorem is TheoremId.THM_SALOMAA_MAIN:
        if f.k != 2 or f.b != 2:
            raise NotBoolean(f"needs k = b = 2, got k={f.k} b={f.b}")
        if len(essential_vars(f)) < 2:
            return _SKIP
        return _OK if gap_report(f).gap <= 2 else _VIOL
    if theorem is TheoremId.THM_GEN:
        e = ess(f)
        if e <= f.k:
            return _SKIP
        return _OK if gap_report(f).essl >= e - f.k else _VIOL
    if theorem is TheoremId.THM_SALOMAA_AUX:
        if f.n < 2 or len(essential_vars(f)) != f.n:
            return _SKIP
        return _OK if find_restriction_witness(f) is not None else _VIOL
    if theorem is TheoremId.LEM_KPLUS1:
        if f.n <= f.k or len(essential_vars(f)) != f.n:
            return _SKIP
        return _OK if check_kplus1_lemma(f) is not None else _VIOL
    raise SpecInvalid(f"no per-function check for {theorem}")


# ---------------------------------------------------------------------------
# populations
# ---------------------------------------------------------------------------


def _exhaustive_total(pop: Exhaustive, budget: int) -> int:
    size = pop.k**pop.n
    if size > budget:
        raise BudgetExceeded(f"table size {size} exceeds budget {budget}")
    if power_exceeds(pop.b, size, budget):
        raise BudgetExceeded(f"{pop.b}**{size} tables exceed budget {budget}; use a sampled sweep")
    return pop.b**size


def _var_masks(n: int) -> tuple[int, ...]:
    """For each variable t, the packed Boolean table of x_t."""
    return tuple(m[1] for m in _layout(2, 1, n)[0])


def _deg2_total(pop: Exhaustive, budget: int) -> int:
    if pop.k != 2 or pop.b != 2:
        raise NotBoolean("degree-2 polynomial sweeps need k = b = 2")
    npairs = pop.n * (pop.n - 1) // 2
    # At least 2**(npairs + n) candidates whenever there is a pair.
    if npairs and power_exceeds(2, npairs + pop.n, budget):
        raise BudgetExceeded(f"degree-2 polynomials on n={pop.n} variables exceed budget {budget}")
    total = ((1 << npairs) - 1) << (pop.n + 1)
    if total > budget:
        raise BudgetExceeded(f"{total} polynomials exceed budget {budget}")
    return total


def _run_deg2_range(n: int, lo: int, hi: int, max_recorded: int):
    """Walk degree-2 polynomials (quadratic part, linear part, constant)
    by linear candidate index; quadratic part changes slowest."""
    vm = _var_masks(n)
    # (table, variable bitset) per quadratic monomial x_s*x_t, lex order.
    pairs = [(vm[s] & vm[t], (1 << s) | (1 << t)) for s in range(n) for t in range(s + 1, n)]
    size = 1 << n
    all_ones = (1 << size) - 1
    lmasks = [0]  # lmasks[lset]: XOR of x_{t+1} over the bits t of lset
    for m in vm:
        lmasks += [x ^ m for x in lmasks]
    inner = 1 << (n + 1)
    checked = skipped = vcount = 0
    violations: list[FiniteFunction] = []
    cur_q = -1
    q_mask = q_sup = 0
    for lin in range(lo, hi):
        q_idx = lin // inner + 1
        rem = lin % inner
        l_idx = rem >> 1
        c = rem & 1
        if q_idx != cur_q:
            cur_q = q_idx
            q_mask = q_sup = 0
            qq, p = q_idx, 0
            while qq:
                if qq & 1:
                    pm, ps = pairs[p]
                    q_mask ^= pm
                    q_sup |= ps
                qq >>= 1
                p += 1
        if (q_sup | l_idx).bit_count() < 4:
            skipped += 1
            continue
        tbl = q_mask ^ lmasks[l_idx]
        if c:
            tbl ^= all_ones
        f = FiniteFunction(2, 2, n, tbl)
        checked += 1
        if gap_report(f).gap != 1:
            vcount += 1
            if len(violations) < max_recorded:
                violations.append(f)
    return checked, skipped, vcount, violations


def _require_feasible(theorem: TheoremId, pop: Sampled) -> None:
    """Refuse a shape on which the theorem's hypothesis never holds, before
    rejection sampling burns draws on it.  Every hypothesis needs ess f >= 2,
    ThmGen and LemKplus1 need ess f > k, and with k, b >= 2 each is met."""
    need = pop.k + 1 if theorem in (TheoremId.THM_GEN, TheoremId.LEM_KPLUS1) else 2
    if pop.k < 2 or pop.b < 2 or pop.n < need:
        shape = f"k={pop.k} b={pop.b} n={pop.n}"
        raise HypothesisNotMet(f"{theorem.value} hypothesis holds for no function with {shape}")


def _member(theorem: TheoremId, pop, index: int) -> tuple[FiniteFunction, int]:
    """Population member index and its check outcome; with rejection, attempt
    a of sample i draws from substream_seed(base, a) until it is not skipped."""
    if isinstance(pop, Exhaustive):
        f = from_code(pop.k, pop.b, pop.n, index)
        return f, _check_one(theorem, f)
    base = substream_seed(pop.seed, index)
    if not pop.reject_until_hypothesis:
        f = random_function(pop.k, pop.b, pop.n, base)
        return f, _check_one(theorem, f)
    for attempt in range(10000):
        f = random_function(pop.k, pop.b, pop.n, substream_seed(base, attempt))
        outcome = _check_one(theorem, f)
        if outcome != _SKIP:
            return f, outcome
    raise HypothesisNotMet(
        f"rejection sampling found no function satisfying {theorem.value} in 10000 draws"
    )


def _run_range(args):
    theorem, pop, lo, hi, max_recorded = args
    if theorem is TheoremId.LEM_DEG2:
        return _run_deg2_range(pop.n, lo, hi, max_recorded)
    checked = skipped = vcount = 0
    violations: list[FiniteFunction] = []
    for i in range(lo, hi):
        f, outcome = _member(theorem, pop, i)
        if outcome == _SKIP:
            skipped += 1
            continue
        checked += 1
        if outcome == _VIOL:
            vcount += 1
            if len(violations) < max_recorded:
                violations.append(f)
    return checked, skipped, vcount, violations


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

_PARALLEL_THRESHOLD = 200_000


def sweep(
    theorem: TheoremId,
    population,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
    max_recorded: int = 10,
) -> SweepReport:
    """Run one theorem sweep and return its report.

    Deterministic up to elapsed_s: exhaustive populations are walked in
    table-code order, sampled ones by sample index, and chunked worker
    results are merged in chunk order.
    """
    start = time.perf_counter()
    if isinstance(population, Sampled) and population.count < 1:
        raise SpecInvalid(f"sample count must be >= 1, got {population.count}")
    if theorem is TheoremId.THM1:
        report = _sweep_thm1(population, budget, max_recorded)
        return _with_elapsed(report, time.perf_counter() - start)

    if isinstance(population, Exhaustive):
        if theorem is TheoremId.LEM_DEG2:
            total = _deg2_total(population, budget)
            desc = f"exhaustive degree-2 polynomials on n={population.n} variables ({total} candidates)"
        else:
            total = _exhaustive_total(population, budget)
            desc = f"exhaustive k={population.k} b={population.b} n={population.n} ({total} tables)"
        exhaustive = True
    elif isinstance(population, Sampled):
        if theorem is TheoremId.LEM_DEG2:
            raise SpecInvalid("LemDeg2 sweeps enumerate polynomials; use Exhaustive")
        total = population.count
        if total > budget:
            raise BudgetExceeded(f"sample count {total} exceeds budget {budget}")
        if population.k**population.n > budget:
            raise BudgetExceeded(f"table size {population.k**population.n} exceeds budget {budget}")
        if population.reject_until_hypothesis:
            _require_feasible(theorem, population)
        desc = (
            f"sampled k={population.k} b={population.b} n={population.n} "
            f"count={population.count} seed={population.seed} "
            f"reject_until_hypothesis={population.reject_until_hypothesis}"
        )
        exhaustive = False
    else:
        raise SpecInvalid(f"unknown population spec {population!r}")

    nworkers = workers if workers is not None else max(1, min(os.cpu_count() or 1, 8))
    if total >= _PARALLEL_THRESHOLD and nworkers > 1:
        bounds = _chunk_bounds(total, nworkers * 4)
        tasks = [(theorem, population, lo, hi, max_recorded) for lo, hi in bounds]
        with multiprocessing.Pool(nworkers) as pool:
            parts = pool.map(_run_range, tasks)
    else:
        parts = [_run_range((theorem, population, 0, total, max_recorded))]

    checked = sum(p[0] for p in parts)
    skipped = sum(p[1] for p in parts)
    vcount = sum(p[2] for p in parts)
    violations: list[FiniteFunction] = []
    for p in parts:
        violations.extend(p[3][: max_recorded - len(violations)])
    report = SweepReport(
        theorem=theorem,
        population=desc,
        checked=checked,
        skipped=skipped,
        violation_count=vcount,
        violations=tuple(violations),
        witnesses=(),
        exhaustive=exhaustive,
        passed=vcount == 0 and checked > 0,
        elapsed_s=0.0,
    )
    return _with_elapsed(report, time.perf_counter() - start)


def _chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    step = (total + chunks - 1) // chunks
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _with_elapsed(report: SweepReport, elapsed: float) -> SweepReport:
    return dataclasses.replace(report, elapsed_s=elapsed)


def _sweep_thm1(population, budget: int, max_recorded: int) -> SweepReport:
    if not isinstance(population, (Exhaustive, Sampled)):
        raise SpecInvalid(f"unknown population spec {population!r}")
    if population.b != population.k:
        raise SpecInvalid("total-collapse witnesses are operations: need b = k")
    k, n = population.k, population.n
    if isinstance(population, Exhaustive):
        ws = find_total_collapse_witnesses(k, n, limit=max_recorded, budget=budget)
    else:
        ws = find_total_collapse_witnesses(
            k, n, limit=max_recorded, seed=population.seed, budget=budget,
            samples=population.count,
        )
    # The theorem guarantees a witness for n <= k; a complete search that
    # finds none would disprove it.
    failed = ws.exhaustive and n <= k and ws.total_found == 0
    return SweepReport(
        theorem=TheoremId.THM1,
        population=f"{ws.mode} search k={k} n={n} space={ws.space}",
        checked=ws.examined,
        skipped=max(ws.space - ws.examined, 0) if ws.exhaustive else 0,
        violation_count=0,
        violations=(),
        witnesses=ws.witnesses,
        exhaustive=ws.exhaustive,
        passed=not failed,
        elapsed_s=0.0,
    )
