"""The ``enum_arith`` workload: number-theory and enumeration kernels.

One operation is one kernel call.  A round holds a fixed mix: four
``n_of_x`` calls spread over x in [20, 150], six ``mori_feasible``, three
``solve_section_config`` (2, 3 and 4 fibres; reachable and unreachable
targets alternate), three ``enumerate_boundary_multisets``, four
``rr_correction_sum``, six Du Val cover-invariant evaluations and four
``check_typ`` calls on valid records.  Sizes inside each band follow a
golden-ratio sequence from a seeded start, so every run covers its bands
evenly.

Every expected value is computed here without the kernel under test: a
totient sieve, a gcd formula for the smallest Mori solution, a dynamic
programme over section heights, a count of bounded multisets, the closed
form of the Riemann-Roch correction sum, the closed forms of table I, and
the record constraints restated.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

from logdgen.cbf import INFEASIBLE, mori_feasible, n_of_x
from logdgen.core import INFINITY, enumerate_boundary_multisets
from logdgen.dualgraph import FibreTypeLabel, KodairaLabel
from logdgen.duval import CoverCase, c_p, delta_p, e_p, o_p
from logdgen.eulerform import rr_correction_sum
from logdgen.fibration import BISECTION, SECTION_ONLY, TWO_SECTIONS, TypRecord, check_typ
from logdgen.mordellweil import height_self, solve_section_config

from sampling import pick, spread

X_MAX = 150
PO_MAX = 2


class Item:
    """One kernel call: span name, callable, arguments, expected value."""

    def __init__(self, name, fn, args, expected, key, bucket=None, candidates=0):
        self.name, self.fn, self.args, self.expected = name, fn, args, expected
        self.key, self.bucket, self.candidates = key, bucket, candidates
        self.robustness = False


# --------------------------------------------------------------- oracles


def totients(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def totient_lcm(phi, x):
    """lcm of every n <= 2x^2 with phi(n) <= x, from a totient table."""
    return lcm(*(n for n in range(1, 2 * x * x + 1) if phi[n] <= x))


def mori_expected(s, b, big_n):
    """The smallest u makes N u (b - s) integral: u = q / gcd(q, N(bq - p))."""
    p, q = s.numerator, s.denominator
    u = q // gcd(q, big_n * (b * q - p))
    v = big_n * u * (b - s)
    return (u, int(v)) if v <= b * big_n else INFEASIBLE


def contributions(label):
    """Local height corrections per reduced component (I_n, I*_1, I*_2)."""
    if label.kind == "I":
        return [Fraction(i * (label.b - i), label.b) for i in range(label.b)]
    far = 1 + Fraction(label.b, 4)
    return [Fraction(0), Fraction(1), far, far]


def height_counts(labels, chi=1):
    """How many (po, hits) give each height, by convolution over fibres."""
    sums = Counter({Fraction(0): 1})
    for label in labels:
        step = Counter()
        for total, count in sums.items():
            for c in contributions(label):
                step[total + c] += count
        sums = step
    heights = Counter()
    for po in range(PO_MAX + 1):
        for total, count in sums.items():
            heights[2 * chi + 2 * po - total] += count
    return heights


def count_multisets(values, target, max_len):
    values = sorted(values, reverse=True)

    @lru_cache(maxsize=None)
    def count(i, remaining, slots):
        if remaining == 0:
            return 1
        if i == len(values) or slots == 0:
            return 0
        total = count(i + 1, remaining, slots)
        if values[i] <= remaining:
            total += count(i, remaining - values[i], slots - 1)
        return total

    return count(0, Fraction(target), max_len)


def cover_expected(case, r, n):
    """Table I closed forms for (e_p, o_p, c_p); delta_p = e_p - 1/o_p - c_p."""
    if case == 1:
        e, o, c = r * n, r * n, n * (r - Fraction(1, r))
    elif case == 2:
        e, o, c = 2 * n + 2, 8 * n - 4, Fraction(3 * (2 * n + 3), 4)
    elif case == 3:
        e, o, c = n + 3, 4 * n, Fraction(3)
    elif case == 4:
        e, o, c = 7, 24, Fraction(16, 3)
    elif case == 5:
        e, o, c = 2 * n + 1, 8 * n - 8, Fraction(3 * n, 2)
    else:
        e, o, c = 8, 48, Fraction(9, 2)
    return (e, o, c, e - Fraction(1, o) - c)


def cover_invariants(case, r, n):
    cover = CoverCase(case, r=r, n=n)
    return (e_p(cover), o_p(cover), c_p(cover), delta_p(cover))


def _std(b):
    return Fraction(1) if b == INFINITY else Fraction(b - 1, b)


def _floor_weight(kind, b, profile):
    if kind == "I-3":
        return Fraction(1) if b == INFINITY else Fraction(2 * b - 1, 2 * b)
    if kind == "II-1" and profile == BISECTION:
        return 2 * _std(b)
    return _std(b)


def _budget(kind, k):
    if kind == "I-2":
        return Fraction(1)
    if kind == "I-3":
        return Fraction(1, 2)
    if kind == "II-3":
        return Fraction(4 * k - 1, 4 * k)
    return Fraction(0)


# Per profile: the generic type, the fibre kinds it admits, the kinds that
# ramify a degree-2 horizontal curve, and its orbifold budget.
_PROFILES = {
    SECTION_ONLY: (("I-1", 1), ("I-1", "I-3", "II-2"), ("I-3", "II-2"), 2),
    BISECTION: (("II-1", 1), ("I-2", "II-1", "II-3"), ("I-2", "II-3"), 4),
    TWO_SECTIONS: (("II-1", 1), ("II-1",), (), 0),
}


def valid_records(max_fibres=4):
    """(profile, special labels) that satisfy the record constraints."""
    bs = (1, 2, 3, 4, 6, INFINITY)
    out = []
    for profile, (generic, kinds, branch, budget) in _PROFILES.items():
        labels = [(kind, b, k) for kind in kinds for b in bs
                  for k in ((1, 2, 3) if kind == "II-3" else (None,)) if (kind, b) != generic]
        for size in range(max_fibres + 1):
            for combo in combinations_with_replacement(labels, size):
                m = sum(1 for kind, _, _ in combo if kind in branch)
                if m % 2 or sum(_budget(kind, k) for kind, _, k in combo) > budget:
                    continue
                floor = sum((_floor_weight(kind, b, profile) for kind, b, _ in combo), Fraction(0))
                slack = (4 - m) - floor if profile == BISECTION else floor
                if slack in (0, 2):
                    out.append((profile, combo))
    return out


# --------------------------------------------------------------- workload


class EnumArith:
    modules = ("logdgen.cbf", "logdgen.core", "logdgen.duval", "logdgen.eulerform",
               "logdgen.fibration", "logdgen.mordellweil")

    def __init__(self, rng, tracer):
        self.rng, self.tracer = rng, tracer
        self.phi = totients(2 * X_MAX * X_MAX + 4)
        self.records = valid_records()
        self.x_bands = [spread(rng) for _ in range(4)]

    def _nx(self, x):
        bucket = "x50" if x <= 50 else "x100" if x <= 100 else "x150"
        return Item("cbf.n_of_x", n_of_x, (x,), totient_lcm(self.phi, x), ("nx", x), bucket)

    def _mori(self):
        rng = self.rng
        b, big_n, q = rng.randint(1, 3), rng.randint(1, 24), rng.randint(1, 12)
        s = Fraction(rng.randrange(b * q), q)
        return Item("cbf.mori_feasible", mori_feasible, (s, b, big_n),
                    mori_expected(s, b, big_n), ("mori", s, b, big_n))

    def _solve(self, count, reachable):
        rng = self.rng
        pool = [KodairaLabel("I", n) for n in range(2, 8 if count < 4 else 7)]
        pool += [KodairaLabel("I*", 1), KodairaLabel("I*", 2)]
        labels = [rng.choice(pool) for _ in range(count)]
        heights = height_counts(labels)
        if reachable:
            target = rng.choice(sorted(heights))
        else:
            # A value between two reachable heights, on the same denominator grid.
            den = lcm(*(c.denominator for label in labels for c in contributions(label)))
            grid = {Fraction(i, den) for i in range(-2 * den, 7 * den)}
            target = rng.choice(sorted(grid - set(heights)))
        fibres = [(label, label.b if label.kind == "I" else label.b + 5) for label in labels]
        candidates = PO_MAX + 1
        for label in labels:
            candidates *= len(contributions(label))
        return Item("mordellweil.solve_section_config", solve_section_config,
                    (target, fibres, 1, PO_MAX), (labels, target, heights[target]),
                    ("solve", tuple(map(str, labels)), target), f"f{count}", candidates)

    def _enum(self):
        rng = self.rng
        allowed = frozenset(rng.sample([Fraction(b - 1, b) for b in range(2, 9)] + [Fraction(1)],
                                       rng.randint(3, 5)))
        target = Fraction(rng.randint(2, 6), 2)
        max_len = rng.randint(4, 7)
        return Item("core.enumerate_boundary_multisets", enumerate_boundary_multisets,
                    (allowed, target, max_len),
                    (allowed, target, max_len, count_multisets(allowed, target, max_len)),
                    ("enum", tuple(sorted(allowed)), target, max_len))

    def _rr(self):
        rng = self.rng
        r = rng.randint(2, 12)
        a = rng.choice([a for a in range(1, r) if gcd(a, r) == 1])
        m = r * rng.randint(1, 5)
        return Item("eulerform.rr_correction_sum", rr_correction_sum, (r, a, m),
                    Fraction(-m * (r * r - 1), 12 * r), ("rr", r, a, m))

    def _cover(self):
        rng = self.rng
        case = rng.randint(1, 6)
        r, n = {1: (rng.randint(2, 6), rng.randint(1, 6)), 2: (4, rng.randint(2, 8)),
                3: (2, rng.randint(2, 8)), 4: (3, None), 5: (2, rng.randint(3, 8)),
                6: (2, None)}[case]
        return Item("duval.cover_invariants", cover_invariants, (case, r, n),
                    cover_expected(case, r, n), ("cover", case, r, n))

    def _typ(self):
        profile, combo = self.rng.choice(self.records)
        generic = _PROFILES[profile][0]
        rec = TypRecord(tuple(FibreTypeLabel(*label) for label in combo), FibreTypeLabel(*generic))
        return Item("fibration.check_typ", check_typ, (rec, profile), True, ("typ", profile, combo))

    def round(self, index):
        nx = [self._nx(pick(next(band), lo, hi))
              for band, (lo, hi) in zip(self.x_bands, ((20, 50), (51, 100), (101, 150), (20, 150)))]
        items = nx + [self._mori() for _ in range(6)]
        items += [self._solve(count, (index + count) % 2 == 0) for count in (2, 3, 4)]
        items += [self._enum() for _ in range(3)] + [self._rr() for _ in range(4)]
        items += [self._cover() for _ in range(6)] + [self._typ() for _ in range(4)]
        self.rng.shuffle(items)
        return items

    def reference(self):
        """Fixed calls at each size band, shared by every traced run."""
        items = [self._nx(x) for x in (50, 100, 150)]
        items += [self._solve(count, True) for count in (2, 3, 4)]
        return items + [self._mori(), self._enum(), self._rr(), self._cover(), self._typ()]

    def run(self, item):
        return self.tracer.call(item.name, item.fn, *item.args, bucket=item.bucket)

    def check(self, item, result):
        if item.name == "mordellweil.solve_section_config":
            labels, target, count = item.expected
            if self.tracer.enabled:
                self.tracer.count(item.name, "candidates", item.candidates)
                self.tracer.count(item.name, "solutions", len(result))
            keys = [(c.po, c.hits) for c in result]
            return len(result) == count and keys == sorted(set(keys)) and all(
                height_self(1, c.po, [contributions(label)[i] for label, i in zip(labels, c.hits)])
                == target for c in result)
        if item.name == "core.enumerate_boundary_multisets":
            allowed, target, max_len, count = item.expected
            return len(result) == count and result == sorted(set(result)) and all(
                len(t) <= max_len and sum(t) == target and set(t) <= allowed
                and list(t) == sorted(t, reverse=True) for t in result)
        return result == item.expected
