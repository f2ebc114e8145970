"""Free modules, resolution shapes, closed-form builders, mapping cones,
and the repeated-twist classifier.  A free module, one column of a table,
is a Counter twist -> multiplicity."""

import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relcomp.errors import InfeasibleError, ParamError, ParityError, SplitError
from relcomp.betti import (
    BettiTable,
    _hf_shifted,
    aci_resolution,
    compressed_gor_even,
    ghost_classify,
    koszul_module,
    koszul_shape,
    mapping_cone_link,
    mrc_resolution,
    quadric_points_resolution,
    rc_gor_even,
    rc_gor_odd_quadric,
    rc_gor_odd_shape,
)
from relcomp.series import froberg_prediction, rational_series, rc_min_bound


def shape(*mods):
    return BettiTable.from_modules([Counter({0: 1})] + [Counter(m) for m in mods])


def _truncated(col, y):
    """The summands R(-t) of a column with t <= y."""
    return Counter({t: m for t, m in col.items() if t <= y})


def _dual_twist(col, e):
    """A column dualized and twisted: R(-t) becomes R(-(e - t))."""
    return Counter({e - t: m for t, m in col.items()})


# --- free modules and Koszul pieces ---------------------------------------


def test_koszul_module_small():
    assert koszul_module([2, 3, 4], 0) == {0: 1}
    assert koszul_module([2, 3, 4], 1) == {2: 1, 3: 1, 4: 1}
    assert koszul_module([2, 3, 4], 2) == {5: 1, 6: 1, 7: 1}
    assert koszul_module([2, 3, 4], 3) == {9: 1}
    assert koszul_module([2, 3, 4], 5) == {}


def test_koszul_generating_identity_random():
    # sum_i (-1)^i sum_j mult(K_i, j) z^j = prod (1 - z^{d_i})
    rng = np.random.default_rng(13)
    for _ in range(210):
        degs = sorted(int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 6))))
        top = sum(degs)
        lhs = [0] * (top + 1)
        for i in range(len(degs) + 1):
            for j, m in koszul_module(degs, i).items():
                lhs[j] += (-1) ** i * m
        rhs = [0] * (top + 1)
        rhs[0] = 1
        for d in degs:
            nxt = list(rhs)
            for j in range(top, d - 1, -1):
                nxt[j] -= rhs[j - d]
            rhs = nxt
        assert lhs == rhs


def test_koszul_shape_euler_matches_ci_series():
    ks = koszul_shape([3, 3, 3])
    hf = rational_series([3, 3, 3], 3)
    assert ks.check_euler(list(hf), 3)
    assert ks.is_self_dual(ks.max_twist())


# --- Betti tables ----------------------------------------------------------


def test_table_round_trip_and_shape():
    t = BettiTable({(0, 0): 1, (1, 3): 2, (2, 6): 1})
    assert BettiTable.from_json(t.to_json()) == t
    assert BettiTable.from_modules(t.modules) == t
    assert t.totals() == [1, 2, 1]
    assert t.generator_degrees() == [3, 3]


def test_render_layout():
    t = BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    lines = t.render().splitlines()
    assert lines[0] == "total:      1     3     2"
    assert set(lines[1]) == {"-"}
    assert lines[2].startswith("      0: ")
    assert lines[2].rstrip().endswith("-")


def test_render_matches_published_diagram_bit_for_bit():
    t = BettiTable({
        (0, 0): 1, (1, 4): 3, (1, 8): 3, (1, 9): 1,
        (2, 8): 3, (2, 9): 3, (2, 10): 3, (2, 11): 3,
        (3, 10): 1, (3, 11): 3, (3, 15): 3, (4, 19): 1,
    })
    want = """\
total:      1     7    12     7     1
--------------------------------------
      0:      1     -     -     -     -
      1:      -     -     -     -     -
      2:      -     -     -     -     -
      3:      -     3     -     -     -
      4:      -     -     -     -     -
      5:      -     -     -     -     -
      6:      -     -     3     -     -
      7:      -     3     3     1     -
      8:      -     1     3     3     -
      9:      -     -     3     -     -
     10:      -     -     -     -     -
     11:      -     -     -     -     -
     12:      -     -     -     3     -
     13:      -     -     -     -     -
     14:      -     -     -     -     -
     15:      -     -     -     -     1"""
    got = t.render().splitlines()
    assert [w.rstrip() for w in want.splitlines()] == [g.rstrip() for g in got]


# --- closed-form builders --------------------------------------------------


def test_compressed_gor_even_small():
    assert compressed_gor_even(3, 2) == shape({3: 7}, {4: 7}, {7: 1})


def test_rc_gor_even_known_display():
    assert rc_gor_even(4, 5, (3, 3, 4)) == shape(
        {3: 2, 4: 1, 6: 9}, {6: 1, 7: 20, 8: 1}, {8: 9, 10: 1, 11: 2}, {14: 1})


def test_rc_gor_even_euler_and_duality():
    for n, t, ci in [(3, 3, (2,)), (3, 4, (3, 3)), (4, 4, (2, 4))]:
        sh = rc_gor_even(n, t, ci)
        assert sh.is_self_dual(sh.max_twist())


def test_rc_gor_odd_shape_known_case():
    odd = rc_gor_odd_shape(4, 7, (4, 4, 4))
    got = odd.evaluate({2: 1})
    want = shape({4: 3, 8: 3, 9: 1},
                 {8: 3, 9: 3, 10: 3, 11: 3},
                 {10: 1, 11: 3, 15: 3}, {19: 1})
    assert got == want
    # y2 is shown on every twist it raises, also where the solved
    # multiplicity is 0 (F_1 at 9, F_3 at 10)
    assert odd.describe() == [
        "F_4 = R(-19)",
        "F_3 = R(-10)^[y2] + R(-11)^[3] + R(-15)^[3]",
        "F_2 = R(-8)^[3] + R(-9)^[2+y2] + R(-10)^[2+y2] + R(-11)^[3]",
        "F_1 = R(-4)^[3] + R(-8)^[3] + R(-9)^[y2]",
        "F_0 = R",
    ]


def test_rc_gor_even_without_ci_is_compressed():
    for n in range(2, 13):
        for t in range(1, 13):
            want = oracle_compressed_gor_even(n, t)
            assert rc_gor_even(n, t, ()) == want
            assert compressed_gor_even(n, t) == want


# --- reference builders -----------------------------------------------------
# Three separate builders, each with its own Euler solve; the library
# builds all three from one self-dual layout, which must agree with them.
# The closed forms after them are independent oracles for the builders
# that read the layout with no complete intersection or with one quadric.


def oracle_compressed_gor_even(n, t):
    """The compressed Gorenstein shape of socle degree 2t from the closed
    binomial formula for its multiplicities."""
    mods = [{0: 1}]
    for i in range(1, n):
        a = math.comb(t + i - 1, i - 1) * math.comb(t + n, n - i) - math.comb(
            t - 1 + n - i, n - i
        ) * math.comb(t - 1 + n, i - 1)
        mods.append({t + i: a})
    mods.append({2 * t + n: 1})
    return BettiTable.from_modules(mods)


def oracle_rc_gor_odd_quadric(t):
    """The literal shape of socle degree 2t+1 over a quadric in 4 variables."""
    a = 2 * t + 3
    return BettiTable.from_modules([
        {0: 1},
        {t + 1: a, 2: 1},
        {t + 2: a, t + 3: a},
        {t + 4: a, 2 * t + 3: 1},
        {2 * t + 5: 1},
    ])


def oracle_aci_hf(d_head, d_last, n):
    """The pointwise positive part of the Hilbert function of the complete
    intersection d_head minus its shift by d_last."""
    h = rational_series(d_head, n)
    return [max(h[el] - h[el - d_last], 0) for el in range(sum(d_head) - n + 1)]


def oracle_rc_gor_even(n, t, ci_degrees=()):
    if n < 2 or t < 1:
        raise ParamError("need n >= 2 and t >= 1")
    degrees = sorted(d for d in ci_degrees if d <= t)
    if len(degrees) > n:
        raise ParamError("more CI degrees than variables")
    hf = rc_min_bound(degrees, n, 2 * t, 1)
    e = 2 * t + n
    mods = [Counter({0: 1})]
    for i in range(1, n):
        m = _truncated(koszul_module(degrees, i), t + i - 1)
        m = m + _dual_twist(_truncated(koszul_module(degrees, n - i), t + n - i - 1), e)
        mods.append(m)
    mods.append(Counter({e: 1}))
    target = _hf_shifted(hf, n, e)
    known = BettiTable.from_modules(mods).euler_coeffs()
    for i in range(1, n):
        a = (-1) ** i * (target[t + i] - known[t + i])
        if a < 0:
            raise InfeasibleError("negative multiplicity at column %d" % i)
        mods[i][t + i] += a
    sh = BettiTable.from_modules(mods)
    if sh.euler_coeffs() != target:
        raise InfeasibleError("Euler identity cannot be satisfied")
    if not sh.is_self_dual(e):
        raise InfeasibleError("solved shape is not self dual")
    return sh


def _oracle_odd_build(n, t, degrees, alphas, ys):
    e = 2 * t + 1 + n
    p = n // 2
    even = n % 2 == 0

    def yv(k):
        return ys.get(k, 0)

    mods = [None] * (n + 1)
    mods[0] = Counter({0: 1})
    mods[n] = Counter({e: 1})
    for i in range(1, p + 1):
        m = _truncated(koszul_module(degrees, i), t + i - 1)
        m = m + _dual_twist(_truncated(koszul_module(degrees, n - i), t + n - i - 1), e)
        if even and i == p:
            m[t + p] += alphas[p] + yv(p)
            m[t + p + 1] += alphas[p] + yv(p)
        else:
            m[t + i] += alphas[i] + yv(i)
            m[t + i + 1] += yv(i + 1)
        mods[i] = m
    for i in range(p + 1, n):
        mods[i] = _dual_twist(mods[n - i], e)
    return BettiTable.from_modules(mods)


def oracle_rc_gor_odd(n, t, ci_degrees=()):
    """(alphas, y_names, evaluate) of the odd socle degree family."""
    if n < 2 or t < 1:
        raise ParamError("need n >= 2 and t >= 1")
    degrees = sorted(d for d in ci_degrees if d <= t)
    if len(degrees) > n:
        raise ParamError("more CI degrees than variables")
    hf = rc_min_bound(degrees, n, 2 * t + 1, 1)
    e = 2 * t + 1 + n
    p = n // 2
    y_names = list(range(2, p + 1)) if n % 2 == 0 else list(range(2, p + 2))
    zero = {i: 0 for i in range(1, p + 1)}
    known = _oracle_odd_build(n, t, degrees, zero, {}).euler_coeffs()
    known += [0] * (e + 1 - len(known))
    target = _hf_shifted(hf, n, e)
    alphas = {}
    for i in range(1, p + 1):
        a = (-1) ** i * (target[t + i] - known[t + i])
        if a < 0:
            raise InfeasibleError("negative multiplicity at column %d" % i)
        alphas[i] = a

    def evaluate(ys):
        sh = _oracle_odd_build(n, t, degrees, alphas, ys)
        if not sh.check_euler(hf, n):
            raise InfeasibleError("Euler identity fails after substitution")
        if not sh.is_self_dual(e):
            raise InfeasibleError("substituted shape is not self dual")
        return sh

    evaluate({})
    return alphas, y_names, evaluate


def oracle_mrc_resolution(n, ci_degrees, t):
    degrees = sorted(ci_degrees)
    if len(degrees) > n - 2:
        raise ParamError("codimension must be at most n - 2")
    if n < 3 or t < 1:
        raise ParamError("need n >= 3 and t >= 1")
    hf = rc_min_bound(degrees, n, 2 * t + 1, 1)
    e = 2 * t + 1 + n
    p = n // 2
    even = n % 2 == 0
    mods = [None] * (n + 1)
    mods[0] = Counter({0: 1})
    mods[n] = Counter({e: 1})
    for i in range(1, p + 1):
        mods[i] = koszul_module(degrees, i) + _dual_twist(koszul_module(degrees, n - i), e)
    target = _hf_shifted(hf, n, e)
    probe = list(mods)
    for i in range(p + 1, n):
        probe[i] = _dual_twist(probe[n - i], e)
    known = BettiTable.from_modules(probe).euler_coeffs()
    known += [0] * (e + 1 - len(known))
    alphas = {}
    for i in range(1, p + 1):
        a = (-1) ** i * (target[t + i] - known[t + i])
        if a < 0:
            raise InfeasibleError("negative multiplicity at column %d" % i)
        alphas[i] = a
    for i in range(1, p + 1):
        if even and i == p:
            mods[p][t + p] += alphas[p]
            mods[p][t + p + 1] += alphas[p]
        else:
            mods[i][t + i] += alphas[i]
    for i in range(p + 1, n):
        mods[i] = _dual_twist(mods[n - i], e)
    sh = BettiTable.from_modules(mods)
    if sh.euler_coeffs() != target:
        raise InfeasibleError("Euler identity cannot be satisfied by this layout")
    return sh


def _outcome(build):
    try:
        return build()
    except (ParamError, InfeasibleError) as err:
        return type(err)


def _text(result):
    return result if isinstance(result, type) else result.text()


def _refusal(result):
    return result.__name__ if isinstance(result, type) else "no refusal"


_TERM = re.compile(r"^R(?:\(-(\d+)\))?(?:\^\[([^\]]+)\])?$")


def _substitute(line, ys):
    """The free module a describe() line stands for at the parameters ys."""
    body = line.split(" = ", 1)[1]
    out = Counter()
    for term in [] if body == "0" else body.split(" + "):
        twist, label = _TERM.match(term).groups()
        mult = sum(ys[int(x[1:])] if x.startswith("y") else int(x)
                   for x in (label or "1").split("+"))
        out[int(twist or 0)] += mult
    return out


@st.composite
def builder_inputs(draw):
    n = draw(st.integers(2, 6))
    t = draw(st.integers(1, 7))
    ci = draw(st.lists(st.integers(1, 6), max_size=n))
    return n, t, tuple(ci)


@settings(max_examples=300, deadline=None)
@given(builder_inputs())
@example((4, 7, (4, 4, 4)))
@example((4, 5, (3, 3, 4)))
@example((5, 3, (2, 3)))
@example((4, 5, (2,)))
@example((6, 2, ()))
def test_builders_match_reference(args):
    n, t, ci = args
    assert _text(_outcome(lambda: rc_gor_even(n, t, ci))) == \
        _text(_outcome(lambda: oracle_rc_gor_even(n, t, ci)))
    assert _text(_outcome(lambda: mrc_resolution(n, ci, t))) == \
        _text(_outcome(lambda: oracle_mrc_resolution(n, ci, t)))
    got = _outcome(lambda: rc_gor_odd_shape(n, t, ci))
    want = _outcome(lambda: oracle_rc_gor_odd(n, t, ci))
    if isinstance(got, type) or isinstance(want, type):
        assert got is want, "rc_gor_odd_shape: %s; oracle_rc_gor_odd: %s" % (
            _refusal(got), _refusal(want))
        return
    alphas, y_names, evaluate = want
    assert (got.alphas, got.y_names) == (alphas, y_names)
    choices = [{}, {k: 2 for k in y_names}] + [{k: 2} for k in y_names]
    for ys in choices:
        assert got.evaluate(ys).text() == evaluate(ys).text()
    # describe() stands for evaluate() at any parameter values
    ys = {k: 3 * k + 1 for k in y_names}
    lines = got.describe()
    modules = evaluate(ys).modules
    assert len(lines) == len(modules)
    for line, module in zip(lines, reversed(modules)):
        assert _substitute(line, ys) == module


def test_quadric_points_shapes():
    hf, sh = quadric_points_resolution(30)
    assert hf.text() == "1 3 5 7 9 5"
    assert sh == shape({2: 1, 5: 6}, {6: 5, 7: 6}, {8: 5})
    hf, sh = quadric_points_resolution(29)
    assert hf.text() == "1 3 5 7 9 4"
    assert sh == shape({2: 1, 5: 7}, {6: 8, 7: 3}, {8: 4})


def test_quadric_points_refuses_fewer_than_five_and_passes_euler():
    # for up to 4 general points the quadric is not an extra minimal
    # generator of their ideal, and the formula's shapes fail Euler
    for N in range(1, 5):
        with pytest.raises(ParamError):
            quadric_points_resolution(N)
    for N in range(5, 401):
        hf, sh = quadric_points_resolution(N)
        assert sum(hf.coeffs) == N
        assert sh.check_euler(hf, 3)


def test_rc_gor_odd_quadric_display_and_euler():
    sh = rc_gor_odd_quadric(4)
    assert sh == shape({2: 1, 5: 11}, {6: 11, 7: 11}, {8: 11, 11: 1}, {13: 1})
    for t in range(2, 9):
        hf = [min((d + 1) ** 2, (2 * t + 2 - d) ** 2) for d in range(2 * t + 2)]
        assert rc_gor_odd_quadric(t).check_euler(hf, 4)
        sh_t = rc_gor_odd_quadric(t)
        assert sh_t.is_self_dual(sh_t.max_twist())


def test_mrc_reduces_to_quadric_case():
    for t in range(2, 31):
        want = oracle_rc_gor_odd_quadric(t)
        assert mrc_resolution(4, (2,), t) == want
        assert rc_gor_odd_quadric(t) == want
    with pytest.raises(ParamError, match="need t >= 2"):
        rc_gor_odd_quadric(1)


def test_aci_known_display():
    sh, gor = aci_resolution(5, [2, 4, 4, 4, 5, 6])
    assert gor == shape({2: 1, 4: 3, 5: 46}, {6: 149}, {7: 149},
                        {8: 46, 9: 3, 11: 1}, {13: 1})
    assert sh == shape({2: 1, 4: 3, 5: 1, 6: 1},
                       {6: 3, 7: 1, 8: 4, 9: 3, 10: 3, 11: 46},
                       {10: 3, 11: 3, 12: 150}, {13: 146}, {14: 45})


def test_aci_rejects_odd_parity():
    with pytest.raises(ParityError):
        aci_resolution(3, [2, 2, 3, 3])


def test_aci_rejects_complete_intersection_range():
    with pytest.raises(ParamError):
        aci_resolution(3, [2, 2, 2, 9])
    # the last degree is the socle degree of the others: the linked
    # Gorenstein algebra is the field, refused in the ACI's own terms
    for n, degrees in [(2, [2, 2, 2]), (3, [2, 2, 2, 3])]:
        with pytest.raises(ParamError, match="socle degree of the first n"):
            aci_resolution(n, degrees)


def test_aci_guard_is_the_positive_part_of_the_shifted_series():
    # every sorted input with n 2-6, degrees 2-8 and the last degree at most
    # the socle degree of the others, parity or not
    count = 0
    for n in range(2, 7):
        for degrees in itertools.combinations_with_replacement(range(2, 9), n + 1):
            d_head, d_last = list(degrees[:n]), degrees[n]
            if d_last > sum(d_head) - n:
                continue
            count += 1
            assert froberg_prediction(degrees, n) == oracle_aci_hf(d_head, d_last, n)
    assert count == 3313


# --- mapping cones ---------------------------------------------------------


def test_mapping_cone_double_link_of_points():
    points = shape({1: 1, 2: 3}, {3: 5}, {4: 2})
    j1 = mapping_cone_link([2, 2, 4], points)
    assert j1 == shape({2: 2, 4: 3}, {4: 1, 5: 5}, {6: 1, 7: 1})
    a = mapping_cone_link([4, 4, 4], j1, target_hf=[1, 3, 6, 10, 12, 11, 6, 2])
    assert a == shape({4: 3, 5: 1, 6: 1}, {7: 5, 8: 1}, {10: 2})


def test_mapping_cone_split_guard():
    points = shape({1: 1, 2: 3}, {3: 5}, {4: 2})
    with pytest.raises(SplitError):
        mapping_cone_link([4, 4, 4], points, target_hf=[1, 2, 3])


@pytest.mark.parametrize("twist", [5, 9])
def test_mapping_cone_refuses_a_negative_twist(twist):
    # R(-twist) dualizes to R(4 - twist) under the degree sum 4: at -1 the
    # Euler coefficients once wrapped round, at -5 they overran
    with pytest.raises(ParamError, match="negative twist"):
        mapping_cone_link([2, 2], BettiTable.from_modules([{0: 1}, {twist: 1}]))


@pytest.mark.parametrize("beta", [{(1, -1): 1}, {(1, 2): -1}, {(-1, 3): 2}])
def test_betti_table_refuses_a_negative_entry(beta):
    with pytest.raises(ParamError, match="negative twist or multiplicity"):
        BettiTable({(0, 0): 1, **beta})


def oracle_mapping_cone_link(res_ci, res_i, d=None, split="min-consistent",
                             target_hf=None, n=None):
    # the library's cone before its unused policies and parameters went
    if isinstance(res_ci, (list, tuple)):
        res_ci = koszul_shape(res_ci)
    if n is None:
        n = res_ci.max_index()
    if d is None:
        d = max(res_ci.modules[n])
    if res_i.max_index() > n:
        raise ParamError("linked shape is longer than the Koszul shape")
    fmods = list(res_i.modules) + [Counter()] * (n + 1 - len(res_i.modules))
    kparts = {}
    fparts = {}
    for i in range(1, n + 1):
        kparts[i] = _dual_twist(res_ci.modules[n - i], d) if 1 <= n - i else Counter()
        fparts[i] = _dual_twist(fmods[n - i + 1], d)
    levels = []
    if split == "generator":
        levels = [1]
    elif split == "min-consistent":
        levels = list(range(1, n))
    elif split != "none":
        raise ParamError("unknown splitting policy %r" % split)
    for j in levels:
        lo, hi = kparts[n - j], fparts[n - j + 1]
        common = lo & hi
        for t, m in common.items():
            lo[t] -= m
            hi[t] -= m
    mods = [Counter({0: 1})]
    for i in range(1, n + 1):
        mods.append(kparts[i] + fparts[i])
    while len(mods) > 1 and not mods[-1]:
        mods.pop()
    shape = BettiTable.from_modules(mods)
    if target_hf is not None and not shape.check_euler(target_hf, n):
        raise SplitError("cone shape is inconsistent with the requested Hilbert function")
    return shape


def _hf_of(sh, n):
    """A Hilbert function that sh passes check_euler against: its Euler
    coefficients times (1 - z)^-n, cut at the top twist."""
    hf = sh.euler_coeffs()
    for _ in range(n):
        hf = list(np.cumsum(hf))
    return [int(h) for h in hf]


@st.composite
def cone_inputs(draw):
    ci = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    # twists below the degree sum, so that every dual twist stays >= 0
    twists = st.dictionaries(st.integers(1, max(sum(ci) - 1, 1)), st.integers(1, 4),
                             max_size=3)
    res_i = BettiTable.from_modules([Counter({0: 1})] + [
        Counter(draw(twists))
        for _ in range(draw(st.integers(0, len(ci) + 1)))])
    target = draw(st.sampled_from(["none", "consistent", "random"]))
    return ci, res_i, target, draw(st.lists(st.integers(0, 30), max_size=12))


def _cone_outcome(build):
    try:
        return build().text()
    except (ParamError, SplitError) as err:
        return type(err)


@settings(max_examples=300, deadline=None)
@given(cone_inputs())
def test_mapping_cone_matches_reference(args):
    ci, res_i, target, noise = args
    hf = None if target == "none" else noise
    if target == "consistent" and res_i.max_index() <= len(ci):
        hf = _hf_of(oracle_mapping_cone_link(ci, res_i), len(ci))
    want = _cone_outcome(lambda: oracle_mapping_cone_link(
        koszul_shape(ci), res_i, sum(ci), split="min-consistent",
        target_hf=hf, n=len(ci)))
    assert _cone_outcome(lambda: mapping_cone_link(ci, res_i, target_hf=hf)) == want


# --- repeated-twist classifier --------------------------------------------


def test_ghost_classify_known_table():
    t = BettiTable({
        (0, 0): 1, (1, 4): 3, (1, 8): 3, (1, 9): 1,
        (2, 8): 3, (2, 9): 3, (2, 10): 3, (2, 11): 3,
        (3, 10): 1, (3, 11): 3, (3, 15): 3, (4, 19): 1,
    })
    report = ghost_classify(t)
    got = {(e.i, e.j): e.cls for e in report.entries}
    assert got == {(1, 8): "KOSZUL", (1, 9): "NON_KOSZUL",
                   (2, 10): "NON_KOSZUL", (2, 11): "DUALITY_FORCED"}


def test_ghost_classify_koszul_only_table():
    # two cubic generators: the twist-6 repeat is the Koszul relation
    t = BettiTable({(0, 0): 1, (1, 3): 2, (1, 6): 1, (2, 6): 1, (2, 7): 2,
                    (3, 10): 1})
    report = ghost_classify(t)
    entry = report.find(1, 6)
    assert entry is not None and entry.cls == "KOSZUL"


def test_ghost_classify_counts_copies():
    t = BettiTable({(0, 0): 1, (1, 3): 2, (1, 7): 2, (1, 9): 2, (1, 10): 3,
                    (2, 6): 1, (2, 10): 5, (2, 11): 12,
                    (3, 12): 7, (3, 14): 5, (4, 17): 2})
    entry = ghost_classify(t).find(1, 10)
    assert entry.cls == "KOSZUL"
    assert entry.mult_upper == 5
    assert entry.koszul_upper == 4
