"""Pinned worked cases for the reproduction harness.

Each case builds a configuration from scratch (seeded), recomputes every
quantity, and diffs the results against expected fixtures.  Every fixture
value carries a tag that says where it comes from:

* ``recorded`` -- copied from an independently published computation that
  the case is meant to reproduce;
* ``derived``  -- obtained from a different formula inside this package,
  so the check is a cross-validation of two code paths;
* ``trivial``  -- immediate from the definitions.

Fixture values are exact integers; a case passes only on exact agreement.
"""

from dataclasses import dataclass, field

import numpy as np

from .betti import (
    BettiTable,
    aci_resolution,
    ghost_classify,
    mapping_cone_link,
    quadric_points_resolution,
    rc_gor_even,
    rc_gor_odd_quadric,
)
from .engine import (
    GradedIdeal,
    annihilator_ideal,
    betti_numbers,
    ci_in,
    general_forms,
    hilbert_function,
    ideal_quotient,
    is_relatively_compressed,
    minimal_generators,
    perp_basis,
    socle,
)
from .errors import ParamError
from .gfp import PrimeMatrix
from .ring import FormStream, HomogPoly, RingCtx
from .series import froberg_prediction

__all__ = [
    "ExampleCase",
    "CaseResult",
    "Check",
    "case_ids",
    "get_case",
    "run_case",
    "level_by_linkage",
    "link_general",
    "perp_picks",
    "CHAR2_QUARTIC_TEXTS",
    "CHAR2_QUARTIC_TEXTS_CORRECTED",
]

RECORDED = "recorded"
DERIVED = "derived"
TRIVIAL = "trivial"


@dataclass
class Check:
    name: str
    tag: str
    want: object
    got: object

    @property
    def ok(self):
        return self.want == self.got


@dataclass
class CaseResult:
    case_id: str
    checks: list

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            line = "  %s %-38s [%s]" % (mark, c.name, c.tag)
            if not c.ok:
                line += "\n       want: %r\n       got:  %r" % (c.want, c.got)
            out.append(line)
        status = "PASS" if self.passed else "FAIL"
        return ["%s %s" % (status, self.case_id)] + out


@dataclass
class ExampleCase:
    id: str
    description: str
    runner: object = field(repr=False)

    def run(self, seed=1):
        checks = []
        self.runner(checks, seed)
        return CaseResult(self.id, checks)


# ---------------------------------------------------------------------------
# shared constructions


def level_by_linkage(cideal, s, c, stream):
    """Level algebra with socle degree s and type c squeezed in the
    complete intersection cideal: adjoin c forms of degree
    sum(ci degrees) - s - n drawn from the stream and take the residual.

    Returns (adjoined ideal, residual ideal).
    """
    degrees = cideal.degrees()
    extra = sum(degrees) - s - cideal.ring.n
    if extra < 1:
        raise ParamError("socle degree too large for this complete intersection")
    big = GradedIdeal(cideal.ring, cideal.gens + [stream.form(extra) for _ in range(c)],
                      ["level", degrees, s, c])
    return big, ideal_quotient(cideal, big)


def link_general(ci_degrees, gen_degrees, stream):
    """Link an ideal of general forms by a general complete intersection
    inside it; returns (ci ideal, ideal, residual)."""
    ideal = general_forms(gen_degrees, stream)
    cideal = ci_in(ideal, ci_degrees, stream)
    return cideal, ideal, ideal_quotient(cideal, ideal)


def perp_picks(c, j, count, stream):
    """Random nonzero elements of the perpendicular space of c in dual degree j,
    each drawn at the free columns of perp_basis' rref and solved for its pivots."""
    red, pivots = perp_basis(c, j)
    free = np.delete(np.arange(red.cols), pivots)
    if not free.size:
        raise ParamError("the perpendicular space is zero in degree %d" % j)
    solve = PrimeMatrix._trusted(red.a[:len(pivots), free], red.p)
    out = []
    while len(out) < count:
        v = np.zeros(red.cols, dtype=np.int64)
        v[free] = stream.coefficients(free.size)
        v[pivots] = -solve.matmul(PrimeMatrix._trusted(v[free, None], red.p)).a[:, 0] % red.p
        f = HomogPoly(c.ring, j, v)
        if not f.is_zero():
            out.append(f)
    return out


def _shape(*mods):
    """The BettiTable of R followed by {twist: mult} dicts."""
    return BettiTable.from_modules([{0: 1}, *mods])


def _add(checks, name, tag, want, got):
    checks.append(Check(name, tag, want, got))


# ---------------------------------------------------------------------------
# cases


def _case_froberg_rows(checks, seed):
    rows = [
        ((3, 3, 3), "1 3 6 7 6 3 1", RECORDED),
        ((4, 4, 4), "1 3 6 10 12 12 10 6 3 1", RECORDED),
        ((4, 4, 4, 2), "1 3 5 7 6 2", RECORDED),
        ((4, 4, 4, 2, 2), "1 3 4 4 1", RECORDED),
        ((9, 9, 9, 9, 9), "1 3 6 10 15 21 28 36 45 50 51 48 41 30 15", RECORDED),
    ]
    for degs, want, tag in rows:
        _add(checks, "froberg %s" % (degs,), tag, want,
             froberg_prediction(degs, 3).text())
    _add(checks, "froberg (2,) n=1", TRIVIAL, "1 1",
         froberg_prediction([2], 1).text())


def _case_ci333_level_s5(checks, seed):
    stream = FormStream(RingCtx(3, 32003), seed)
    cideal = general_forms((3, 3, 3), stream)
    big, res = level_by_linkage(cideal, 5, 2, stream)
    _add(checks, "adjoined hf", DERIVED, "1 1 1",
         hilbert_function(big).text())
    _add(checks, "residual hf", RECORDED, "1 3 6 7 5 2",
         hilbert_function(res).text())
    prof = socle(res)
    _add(checks, "socle", RECORDED, "(5, 5)", prof.text())
    _add(checks, "level", RECORDED, True, prof.is_level)
    _add(checks, "minimal generators", DERIVED, [(3, 3), (4, 1)],
         minimal_generators(res))
    verdict = is_relatively_compressed(res, cideal)
    _add(checks, "verdict", DERIVED, "MEETS_CONJECTURED_BOUND", verdict.verdict)
    _add(checks, "below naive bound at", RECORDED, [4], verdict.below_min_bound)


def _case_ci444_level_s7(checks, seed):
    stream = FormStream(RingCtx(3, 32003), seed)
    cideal = general_forms((4, 4, 4), stream)
    big, res = level_by_linkage(cideal, 7, 2, stream)
    _add(checks, "adjoined hf", RECORDED, "1 3 4 4 1",
         hilbert_function(big).text())
    _add(checks, "residual hf", RECORDED, "1 3 6 10 12 11 6 2",
         hilbert_function(res).text())
    prof = socle(res)
    _add(checks, "socle", DERIVED, "(7, 7)", prof.text())
    verdict = is_relatively_compressed(res, cideal)
    _add(checks, "verdict", DERIVED, "MEETS_CONJECTURED_BOUND", verdict.verdict)
    _add(checks, "below naive bound at", RECORDED, [5], verdict.below_min_bound)
    _add(checks, "naive bound value at 5", RECORDED, 12, verdict.min_bound[5])
    _add(checks, "liaison bound", RECORDED, "1 3 6 10 12 11 6 2",
         verdict.liaison_bound.text())


def _case_ex26_betti(checks, seed):
    # three general points, linked twice; pure mapping-cone arithmetic
    points = _shape({1: 1, 2: 3}, {3: 5}, {4: 2})
    j_shape = mapping_cone_link([2, 2, 4], points)
    _add(checks, "first residual shape", RECORDED,
         _shape({2: 2, 4: 3}, {4: 1, 5: 5}, {6: 1, 7: 1}).text(),
         j_shape.text())
    a_hf = [1, 3, 6, 10, 12, 11, 6, 2]
    a_shape = mapping_cone_link([4, 4, 4], j_shape, target_hf=a_hf)
    _add(checks, "second residual shape", RECORDED,
         _shape({4: 3, 5: 1, 6: 1}, {7: 5, 8: 1}, {10: 2}).text(),
         a_shape.text())
    _add(checks, "euler check vs hf", DERIVED, True,
         a_shape.check_euler(a_hf, 3))


def _case_ghost_4444_11(checks, seed):
    stream = FormStream(RingCtx(4, 32003), seed)
    cideal, ideal, res = link_general((4, 4, 4, 11), (4, 4, 4, 4, 11), stream)
    _add(checks, "residual hf", RECORDED,
         "1 4 10 20 32 44 54 60 60 54 44 32 20 10 4 1",
         hilbert_function(res).text())
    table = betti_numbers(res)
    want = BettiTable({
        (0, 0): 1,
        (1, 4): 3, (1, 8): 3, (1, 9): 1,
        (2, 8): 3, (2, 9): 3, (2, 10): 3, (2, 11): 3,
        (3, 10): 1, (3, 11): 3, (3, 15): 3,
        (4, 19): 1,
    })
    _add(checks, "betti table", RECORDED, want.to_json(), table.to_json())
    _add(checks, "totals", RECORDED, [1, 7, 12, 7, 1], table.totals())
    _add(checks, "socle", RECORDED, "(15)", socle(res).text())
    report = ghost_classify(table)
    got = {(e.i, e.j): e.cls for e in report.entries}
    _add(checks, "ghost classes", RECORDED,
         {(1, 8): "KOSZUL", (1, 9): "NON_KOSZUL",
          (2, 10): "NON_KOSZUL", (2, 11): "DUALITY_FORCED"},
         got)


def _case_ex43_chain(checks, seed):
    stream = FormStream(RingCtx(4, 32003), seed)
    first = general_forms((1, 1, 2, 2, 2), stream)
    _add(checks, "start hf", RECORDED, "1 2", hilbert_function(first).text())
    c1 = ci_in(first, (3, 3, 3, 3), stream)
    second = ideal_quotient(c1, first)
    _add(checks, "first link hf", RECORDED, "1 4 10 16 19 16 10 2",
         hilbert_function(second).text())
    c2 = ci_in(second, (3, 3, 7, 7), stream)
    third = ideal_quotient(c2, second)
    _add(checks, "second link hf", RECORDED,
         "1 4 10 18 27 36 45 52 55 50 35 20 8 2",
         hilbert_function(third).text())
    table = betti_numbers(third)
    want = BettiTable({
        (0, 0): 1,
        (1, 3): 2, (1, 7): 2, (1, 9): 2, (1, 10): 3,
        (2, 6): 1, (2, 10): 5, (2, 11): 12,
        (3, 12): 7, (3, 14): 5,
        (4, 17): 2,
    })
    _add(checks, "final betti table", RECORDED, want.to_json(), table.to_json())
    cone = mapping_cone_link([3, 3, 7, 7], betti_numbers(second),
                             target_hf=list(hilbert_function(third)))
    _add(checks, "mapping cone agrees", DERIVED,
         table.to_json(), cone.to_json())
    entry = ghost_classify(table).find(1, 10)
    _add(checks, "twist-10 ghost class", RECORDED, "KOSZUL", entry.cls)
    _add(checks, "twist-10 copies above", RECORDED, 5, entry.mult_upper)
    _add(checks, "twist-10 subset-sum count", RECORDED, 4, entry.koszul_upper)


CHAR2_QUARTIC_TEXTS = [
    "x1^4 + x1*x2^3 + x1^2*x2*x3 + x1^2*x3^2 + x1*x2*x3^2 + x1*x3^3 + x2*x3^3",
    "x1^3*x2 + x1^2*x2*x3 + x1*x2^2*x3 + x2^3*x3 + x2^2*x3^2 + x2*x3^3 + x3^4",
    "x1*x2^3 + x1^3*x3 + x1^2*x2*x3 + x1*x2^2*x3 + x2^3*x3 + x1^2*x3^2"
    " + x2^2*x3^2 + x1*x3^3",
]

# The published list omits the monomial x2^4 everywhere, so the three
# forms share the zero (0:1:0) and cannot cut out a finite scheme; adding
# x2^4 to the second form is the minimal repair that restores a complete
# intersection with the documented linked Hilbert function.
CHAR2_QUARTIC_TEXTS_CORRECTED = [
    CHAR2_QUARTIC_TEXTS[0],
    CHAR2_QUARTIC_TEXTS[1] + " + x2^4",
    CHAR2_QUARTIC_TEXTS[2],
]


def _case_char2_quartics(checks, seed):
    ring = RingCtx(3, 2)
    stream = FormStream(ring, seed)
    # monomial complete intersection, general linear form
    mono = GradedIdeal(ring, [ring.monomial((4, 0, 0)),
                              ring.monomial((0, 4, 0)),
                              ring.monomial((0, 0, 4))])
    ell = stream.form(1)
    big = GradedIdeal(ring, mono.gens + [ell])
    res = ideal_quotient(mono, big)
    _add(checks, "monomial ci link hf", RECORDED, "1 3 6 9 10 9 6 3 1",
         hilbert_function(res).text())
    # the verbatim quartic list degenerates: the forms share a zero
    verbatim = GradedIdeal(ring, [HomogPoly.parse(ring, t)
                                  for t in CHAR2_QUARTIC_TEXTS])
    vhf = hilbert_function(verbatim, cap=12)
    _add(checks, "verbatim list degenerates", DERIVED, (False, 1),
         (vhf.exact, vhf[12]))
    corrected = GradedIdeal(ring, [HomogPoly.parse(ring, t)
                                   for t in CHAR2_QUARTIC_TEXTS_CORRECTED])
    _add(checks, "corrected ci hf", DERIVED, "1 3 6 10 12 12 10 6 3 1",
         hilbert_function(corrected).text())
    big2 = GradedIdeal(ring, corrected.gens + [ring.variable(2)])
    res2 = ideal_quotient(corrected, big2)
    _add(checks, "corrected link hf", RECORDED, "1 3 6 10 12 10 6 3 1",
         hilbert_function(res2).text())
    # the same construction over a big field
    stream0 = FormStream(RingCtx(3, 32003), seed)
    big0, res0 = level_by_linkage(general_forms((4, 4, 4), stream0), 8, 1, stream0)
    _add(checks, "big-field link hf", RECORDED, "1 3 6 10 12 10 6 3 1",
         hilbert_function(res0).text())


_GOR_EVEN_GRID = [
    (3, 3, (2,)),
    (3, 4, (3, 3)),
    (4, 5, (3, 3, 4)),
    (4, 4, (2, 4)),
]


def _case_gor_even_cross(checks, seed):
    for n, t, ci in _GOR_EVEN_GRID:
        stream = FormStream(RingCtx(n, 32003), seed)
        cideal = general_forms(ci, stream)
        f = perp_picks(cideal, 2 * t, 1, stream)[0]
        algebra = annihilator_ideal([f])
        got = betti_numbers(algebra)
        want = rc_gor_even(n, t, ci)
        _add(checks, "n=%d t=%d ci=%s" % (n, t, ci), DERIVED,
             want.to_json(), got.to_json())
    # the (4, 5, (3, 3, 4)) prediction equals the published display
    _add(checks, "published display (4,5,(3,3,4))", RECORDED,
         _shape({3: 2, 4: 1, 6: 9}, {6: 1, 7: 20, 8: 1},
                {8: 9, 10: 1, 11: 2}, {14: 1}).text(),
         rc_gor_even(4, 5, (3, 3, 4)).text())


def _case_aci_244456(checks, seed):
    shape, gor = aci_resolution(5, [2, 4, 4, 4, 5, 6])
    _add(checks, "gorenstein shape", RECORDED,
         _shape({2: 1, 4: 3, 5: 46}, {6: 149}, {7: 149},
                {8: 46, 9: 3, 11: 1}, {13: 1}).text(),
         gor.text())
    _add(checks, "aci shape", RECORDED,
         _shape({2: 1, 4: 3, 5: 1, 6: 1},
                {6: 3, 7: 1, 8: 4, 9: 3, 10: 3, 11: 46},
                {10: 3, 11: 3, 12: 150}, {13: 146}, {14: 45}).text(),
         shape.text())
    ideal = general_forms((2, 4, 4, 4, 5, 6), FormStream(RingCtx(5, 32003), seed))
    _add(checks, "engine hf", RECORDED, "1 5 14 30 52 75 92 95 79 45",
         hilbert_function(ideal, cap=10).text())


def _case_quadric_points(checks, seed):
    hf30, shape30 = quadric_points_resolution(30)
    _add(checks, "30 points h-vector", RECORDED, "1 3 5 7 9 5", hf30.text())
    _add(checks, "30 points shape", RECORDED,
         _shape({2: 1, 5: 6}, {6: 5, 7: 6}, {8: 5}).text(), shape30.text())
    hf29, shape29 = quadric_points_resolution(29)
    _add(checks, "29 points h-vector", DERIVED, "1 3 5 7 9 4", hf29.text())
    _add(checks, "29 points shape", DERIVED,
         _shape({2: 1, 5: 7}, {6: 8, 7: 3}, {8: 4}).text(), shape29.text())
    quad = rc_gor_odd_quadric(4)
    _add(checks, "socle-9 quadric shape", RECORDED,
         _shape({2: 1, 5: 11}, {6: 11, 7: 11}, {8: 11, 11: 1}, {13: 1}).text(),
         quad.text())
    hf = [1, 4, 9, 16, 25, 25, 16, 9, 4, 1]
    _add(checks, "socle-9 euler check", RECORDED, True, quad.check_euler(hf, 4))
    euler_ok = all(
        rc_gor_odd_quadric(t).check_euler(
            [min((d + 1) ** 2, (2 * t + 1 - d + 1) ** 2)
             for d in range(2 * t + 2)], 4)
        for t in range(2, 9))
    _add(checks, "euler identity t=2..8", DERIVED, True, euler_ok)


def _case_quadric_level_29(checks, seed):
    stream = FormStream(RingCtx(3, 32003), seed)
    quadric = general_forms((2,), stream)
    picks = perp_picks(quadric, 5, 4, stream)
    algebra = annihilator_ideal(picks)
    _add(checks, "level hf", RECORDED, "1 3 5 7 9 4",
         hilbert_function(algebra).text())
    _add(checks, "socle", DERIVED, "(5, 5, 5, 5)", socle(algebra).text())
    got = betti_numbers(algebra)
    want = quadric_points_resolution(29)[1]
    _add(checks, "betti table", DERIVED, want.to_json(), got.to_json())


_CASES = [
    ExampleCase("froberg-rows",
                "series predictor against published general-forms rows",
                _case_froberg_rows),
    ExampleCase("ci333-level-s5",
                "type-2 level algebra in a cubic complete intersection",
                _case_ci333_level_s5),
    ExampleCase("ci444-level-s7",
                "type-2 level algebra in a quartic complete intersection",
                _case_ci444_level_s7),
    ExampleCase("ex26-betti",
                "double link of three points by mapping cones",
                _case_ex26_betti),
    ExampleCase("ghost-4444-11",
                "odd-socle Gorenstein link with a non-Koszul ghost",
                _case_ghost_4444_11),
    ExampleCase("ex43-chain",
                "two-step linkage chain with a mixed ghost count",
                _case_ex43_chain),
    ExampleCase("char2-quartics",
                "characteristic-2 study: monomial vs non-monomial quartics",
                _case_char2_quartics),
    ExampleCase("gor-even-cross",
                "even-socle Gorenstein predictions vs the engine",
                _case_gor_even_cross),
    ExampleCase("aci-244456",
                "almost complete intersection (2,4,4,4,5,6) in 5 variables",
                _case_aci_244456),
    ExampleCase("quadric-points",
                "points on a quadric and the odd-socle quadric shapes",
                _case_quadric_points),
    ExampleCase("quadric-level-29",
                "type-4 level algebra from an inverse system on a quadric",
                _case_quadric_level_29),
]

_BY_ID = {c.id: c for c in _CASES}


def case_ids():
    return [c.id for c in _CASES]


def get_case(case_id):
    if case_id not in _BY_ID:
        raise ParamError("unknown case %r (known: %s)"
                         % (case_id, ", ".join(case_ids())))
    return _BY_ID[case_id]


def run_case(case_id, seed=1):
    return get_case(case_id).run(seed)
