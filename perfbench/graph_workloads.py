"""The ``graph_small`` and ``graph_large`` workloads over the ``dualgraph`` layer."""

import json
import random
from fractions import Fraction

from logdgen.dualgraph import (
    blow_down,
    classify_pair,
    graph_from_json,
    intersection_matrix,
    is_negative_definite,
    pullback_coefficients,
    recognize_duval,
    recognize_fibre_type,
    recognize_half_catalog,
    recognize_kodaira,
)

from graphs import (
    RECOGNIZERS,
    UNRECOGNIZED,
    Shape,
    blow_down_plan,
    canonical_key,
    duval,
    fibre_type,
    graph_state,
    half_catalog,
    kodaira,
    negative_definite,
    perturb,
    size_bucket,
    small_catalog,
)
from sampling import pick, spread

RECOGNIZER_FNS = tuple(zip(RECOGNIZERS, (recognize_duval, recognize_kodaira,
                                          recognize_half_catalog, recognize_fibre_type)))
REFUSED = "REFUSED"


class Case:
    """One graph as sent, with everything the checks expect of it."""

    def __init__(self, g, labels, rng):
        g = json.loads(json.dumps(g))
        rng.shuffle(g["vertices"])
        rng.shuffle(g["edges"])
        self.json, self.labels = g, labels
        self.shape = Shape(g)
        self.bucket = size_bucket(len(g["vertices"]))
        self.key = canonical_key(g)
        self.robustness = False


def _count_hits(tracer, labels):
    for name, label in labels.items():
        tracer.count(f"dualgraph.recognize_{name}", "hits", int(str(label) != UNRECOGNIZED))


class GraphSmall:
    """Catalog-sized graphs, re-sent every round, plus fresh perturbed ones.

    An operation parses the JSON, runs the four recognizers, classifies the
    pair when there are exceptional curves and contracts (-1)-curves while
    the documented conditions allow.
    """

    modules = ("logdgen.dualgraph",)
    PERTURBED_PER_ROUND = 16

    def __init__(self, rng, tracer):
        self.rng, self.tracer = rng, tracer
        self.pool = [self._case(g, labels) for g, labels in small_catalog(rng)]

    def _case(self, g, labels):
        case = Case(g, labels, self.rng)
        case.cls = (case.shape.expected_class() or REFUSED) if case.shape.exc else None
        case.plan = blow_down_plan(case.json)
        return case

    def round(self, index):
        fresh = [self._case(*perturb(self.rng.choice(self.pool).json, self.rng))
                 for _ in range(self.PERTURBED_PER_ROUND)]
        items = self.pool + fresh
        self.rng.shuffle(items)
        return items

    def reference(self):
        return [self._case(*g) for g in (half_catalog("alpha", 2), kodaira("I*", 8), duval("E", 8),
                                         fibre_type("II-3", 3, 2))]

    def run(self, case):
        call, bucket = self.tracer.call, case.bucket
        g = call("dualgraph.graph_from_json", graph_from_json, case.json, bucket=bucket)
        labels = {name: call(f"dualgraph.recognize_{name}", fn, g, bucket=bucket)
                  for name, fn in RECOGNIZER_FNS}
        cls = None
        if case.shape.exc:
            try:
                cls = call("dualgraph.classify_pair", classify_pair, g, bucket=bucket)
            except ValueError:
                cls = REFUSED
        contracted = []
        for vid, _ in case.plan:
            try:
                g = call("dualgraph.blow_down", blow_down, g, vid, bucket=bucket)
            except ValueError:
                contracted.append(None)
                break
            contracted.append(g)
        return labels, cls, contracted

    def check(self, case, result):
        labels, cls, contracted = result
        if self.tracer.enabled:
            _count_hits(self.tracer, labels)
        states = [None if g is None else graph_state(g) for g in contracted]
        return (all(str(labels[name]) == case.labels[name] for name in RECOGNIZERS)
                and cls == case.cls and states == [state for _, state in case.plan])


# Families of graph_large and the graph each vertex count n gives.
LARGE_FAMILIES = {
    "I*": lambda n: kodaira("I*", n - 5),
    "A": lambda n: duval("A", n),
    "D": lambda n: duval("D", n),
    "I": lambda n: kodaira("I", n),
    "delta": lambda n: half_catalog("delta", n - 2),
    "zeta": lambda n: half_catalog("zeta", n - 2),
}
BANDS = {"v30": (17, 30), "v45": (31, 45), "v60": (46, 60)}


class GraphLarge:
    """Mostly distinct graphs of 17 to 60 vertices, used for queries.

    A round has 27 graphs: three of each family in 17..30 vertices, one of
    each in 31..45, and I*, I_n and A or D (in turn) in 46..60.  An
    operation parses the JSON, runs the four recognizers, tests the
    exceptional (else the whole) intersection matrix for negative
    definiteness, solves the log pullback and classifies the pair.

    The cost of the large graphs grows like n^4, so seeded sizes made whole
    runs differ by a third, and rounds of different make-up made the 90th
    percentile depend on how many rounds a run completed.  Every round
    therefore has the same families per band, and the size schedule is the
    same for every seed (each slot walks its band evenly, round after
    round).  The seed moves each size in 17..30 by at most one vertex and
    orders the operations and the JSON lists; the few larger graphs, which
    set the 90th percentile, keep their scheduled sizes.
    """

    modules = ("logdgen.dualgraph",)

    def __init__(self, rng, tracer):
        self.rng, self.tracer = rng, tracer
        self.slots = {}

    def _size(self, family, band, slot):
        key = f"{family}/{band}/{slot}"
        stream = self.slots.setdefault(key, spread(random.Random(key)))
        lo, hi = BANDS[band]
        n = pick(next(stream), lo, hi)
        if band == "v30":
            n = min(hi, max(lo, n + self.rng.choice((-1, 0, 1))))
        return n

    def _case(self, family, n):
        case = Case(*LARGE_FAMILIES[family](n), self.rng)
        case.matrix_ids = case.shape.exc or [v["id"] for v in case.json["vertices"]]
        case.matrix = case.shape.matrix(case.matrix_ids)
        case.definite = negative_definite(case.matrix)
        return case

    def round(self, index):
        picks = [(family, "v30", slot) for family in LARGE_FAMILIES for slot in range(3)]
        picks += [(family, "v45", 0) for family in LARGE_FAMILIES]
        picks += [(family, "v60", 0) for family in ("I*", "I", ("A", "D")[index % 2])]
        items = [self._case(family, self._size(family, band, slot)) for family, band, slot in picks]
        self.rng.shuffle(items)
        return items

    def reference(self):
        return [self._case(family, n) for n in (16, 30, 45, 60) for family in ("I*", "delta")]

    def run(self, case):
        call, bucket = self.tracer.call, case.bucket
        g = call("dualgraph.graph_from_json", graph_from_json, case.json, bucket=bucket)
        labels = {name: call(f"dualgraph.recognize_{name}", fn, g, bucket=bucket)
                  for name, fn in RECOGNIZER_FNS}
        m = call("dualgraph.intersection_matrix", intersection_matrix, g, case.matrix_ids, bucket=bucket)
        definite = call("dualgraph.is_negative_definite", is_negative_definite, m, bucket=bucket)
        coeffs = call("dualgraph.pullback_coefficients", pullback_coefficients, g, bucket=bucket)
        cls = call("dualgraph.classify_pair", classify_pair, g, bucket=bucket)
        return labels, m, definite, coeffs, cls

    def check(self, case, result):
        labels, m, definite, coeffs, cls = result
        if self.tracer.enabled:
            _count_hits(self.tracer, labels)
        return (all(str(labels[name]) == case.labels[name] for name in RECOGNIZERS)
                and m == case.matrix and definite == case.definite
                and all(isinstance(a, Fraction) for a in coeffs.values())
                and case.shape.solves_pullback(coeffs) and cls == case.shape.pair_class(coeffs))
