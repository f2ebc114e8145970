"""
Betti tables, together with closed-form builders for the minimal free
resolutions of several families of Artinian algebras.  One class holds
every result: a BettiTable is the sparse map (i, j) -> beta_{i,j}, read
column by column as the free modules F_i of a resolution shape, and the
builders return the same class as the exact engine.  A free module, one
column, is a Counter twist -> multiplicity standing for the direct sum of
the R(-twist); the builders combine columns with the Counter operators
+, & and -=.  The builders cover:

* Gorenstein algebras squeezed inside a complete intersection, all from
  one self-dual layout (``_gorenstein_shape``): in each column up to n/2,
  exterior-power summands, the dual of the partner column's, and one
  multiplicity solved from the Euler characteristic identity; the upper
  columns are the duals of the lower ones.  Five builders read it: the
  exact shape for even socle degree (``rc_gor_even``), also with no
  complete intersection (``compressed_gor_even``); the odd socle degree
  family whose ghost pairs y_2, y_3, ... stay free parameters that only a
  concrete computation can pin down (``rc_gor_odd_shape``); and, with
  untruncated summands, the conditional odd-socle shape over a
  codimension <= n-2 complete intersection (``mrc_resolution``), also
  over one quadric in four variables (``rc_gor_odd_quadric``);
* general points on a smooth quadric surface;
* almost complete intersections with even degree sum, via a dualized
  mapping cone over the even-socle Gorenstein shape.

The numeric mapping cone for linkage and the classification of repeated
twists in consecutive modules ("ghost" terms) live here as well.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .errors import InfeasibleError, ParamError, ParityError, RangeError, SplitError
from .series import HilbertSeries, froberg_prediction, rc_min_bound

__all__ = [
    "BettiTable",
    "GhostReport",
    "koszul_module",
    "koszul_shape",
    "compressed_gor_even",
    "rc_gor_even",
    "rc_gor_odd_shape",
    "OddSocleShape",
    "quadric_points_resolution",
    "rc_gor_odd_quadric",
    "mrc_resolution",
    "aci_resolution",
    "mapping_cone_link",
    "ghost_classify",
    "KOSZUL",
    "DUALITY_FORCED",
    "NON_KOSZUL",
]


def _dual(col, e):
    """Dualize and twist a column: R(-t) becomes R(-(e - t))."""
    return Counter({e - t: m for t, m in col.items()})


def _column_text(col):
    """One column as a sum of twists, e.g. R(-3)^2 + R(-5); 0 if empty."""
    parts = []
    for t, m in sorted(col.items()):
        base = "R" if t == 0 else "R(-%d)" % t
        parts.append(base if m == 1 else base + "^%d" % m)
    return " + ".join(parts) or "0"


def _subset_sums(degrees, kmax):
    """counts[k][s] = number of k-element index subsets of degrees with
    degree sum s, for k = 0..kmax."""
    counts = [Counter() for _ in range(kmax + 1)]
    counts[0][0] = 1
    for v in degrees:
        for k in range(kmax - 1, -1, -1):
            for s, c in counts[k].items():
                counts[k + 1][s + v] += c
    return counts


def koszul_module(degrees, i):
    """i-th exterior power of a direct sum of twists R(-d_j).

    Twists are the sums of the degrees over all i-element subsets.
    """
    if i < 0:
        raise RangeError("exterior power index %d out of range" % i)
    return _subset_sums(degrees, i)[i]


def koszul_shape(degrees):
    """The resolution shape of a complete intersection: all exterior powers."""
    degrees = list(degrees)
    return BettiTable.from_modules([koszul_module(degrees, i) for i in range(len(degrees) + 1)])


def _hf_shifted(hf, n, top):
    """(1 - z)^n * H(z) as a coefficient list of length top + 1."""
    if not isinstance(hf, HilbertSeries):
        hf = HilbertSeries(hf)
    out = [0] * (top + 1)
    for k in range(n + 1):
        c = (-1) ** k * math.comb(n, k)
        for d, h in enumerate(hf.coeffs):
            if h and d + k <= top:
                out[d + k] += c * h
    return out


class BettiTable:
    """Graded Betti numbers beta_{i,j} as a sparse map (i, j) -> count.

    Column i is the free module F_i of the resolution it describes, so a
    closed-form shape and an engine result are the same kind of table.
    A zero entry is never stored; so a table has no trailing zero columns,
    and two tables are equal exactly when their maps are.
    """

    def __init__(self, beta):
        self.beta = {k: int(v) for k, v in dict(beta).items() if v}
        if any(i < 0 or j < 0 or m < 0 for (i, j), m in self.beta.items()):
            raise ParamError("a Betti table has no negative index, "
                             "negative twist or multiplicity")

    @classmethod
    def from_modules(cls, modules):
        """The table of F_0, F_1, ... given as {twist: mult} mappings, such
        as Counters, where F_0 must be R itself.  Zero entries are dropped."""
        table = cls({(i, t): m for i, col in enumerate(modules) for t, m in col.items()})
        if table.column(0) != {0: 1}:
            raise ParamError("a shape must start with R itself")
        return table

    def __getitem__(self, key):
        return self.beta.get(tuple(key), 0)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.beta == other.beta

    def max_index(self):
        return max((i for i, _ in self.beta), default=0)

    def max_row(self):
        return max((j - i for i, j in self.beta), default=0)

    def max_twist(self):
        return max((j for _, j in self.beta), default=0)

    def totals(self):
        out = [0] * (self.max_index() + 1)
        for (i, _), m in self.beta.items():
            out[i] += m
        return out

    def column(self, i):
        """The free module F_i as a Counter twist -> multiplicity."""
        return Counter({j: m for (k, j), m in self.beta.items() if k == i})

    @property
    def modules(self):
        """The free modules F_0, ..., F_{max_index()}, as Counters."""
        return [self.column(i) for i in range(self.max_index() + 1)]

    def betti_table(self):
        """The table itself.  Kept only for the benchmark's gorenstein
        invariant (perfbench/workloads.py), which calls
        compressed_gor_even(6, 4).betti_table()."""
        return self

    def euler_coeffs(self):
        """Coefficients of sum_i (-1)^i sum_j beta_{i,j} z^j."""
        out = [0] * (self.max_twist() + 1)
        for (i, j), m in self.beta.items():
            out[j] += (-1) ** i * m
        return out

    def check_euler(self, hf, n):
        """True iff the alternating twist sum equals (1 - z)^n times hf."""
        return self.euler_coeffs() == _hf_shifted(hf, n, self.max_twist())

    def is_self_dual(self, e):
        """True iff F_{L-i} is the dual of F_i twisted by e, L = max_index()."""
        top = self.max_index()
        return self.beta == {(top - i, e - j): m for (i, j), m in self.beta.items()}

    def generator_degrees(self):
        """Degrees of the module generators, with multiplicity, from column 1."""
        out = []
        for (i, j), m in sorted(self.beta.items()):
            if i == 1:
                out.extend([j] * m)
        return out

    def text(self):
        """The shape 0 -> F_L -> ... -> F_0, L = max_index()."""
        return "0 -> " + " -> ".join(map(_column_text, reversed(self.modules)))

    def render(self):
        """Classic diagram: `total:` header, rows indexed by j - i, `-` for 0."""
        imax = self.max_index()
        rmax = self.max_row()
        width = max(6, max((len(str(v)) for v in self.beta.values()), default=1) + 2)
        cell = "%%%dd" % width
        dash = "-".rjust(width)
        lines = ["total: " + "".join(cell % t for t in self.totals())]
        lines.append("-" * (8 + width * (imax + 1)))
        for r in range(rmax + 1):
            row = "%7d: " % r
            for i in range(imax + 1):
                v = self.beta.get((i, r + i), 0)
                row += (cell % v) if v else dash
            lines.append(row)
        return "\n".join(lines)

    def to_json(self):
        return {"betti": [[i, j, m] for (i, j), m in sorted(self.beta.items())]}

    @classmethod
    def from_json(cls, data):
        return cls({(i, j): m for i, j, m in data["betti"]})

    def __repr__(self):
        return "BettiTable(%d entries)" % len(self.beta)


# ---------------------------------------------------------------------------
# closed-form builders


def _gorenstein_shape(n, s, degrees, truncate=True, ys=None):
    """The self-dual Gorenstein layout of socle degree s over the complete
    intersection degrees, and its solved multiplicities.

    Column i <= n/2 is the exterior power K_i (kept up to twist t+i-1
    when truncate is set, t = s // 2), the dual twist of K_{n-i} (kept up
    to t+n-i-1), one unknown alpha_i at twist t+i, and each ghost pair
    y_k at twist t+k in columns k-1 and k; the columns above n/2 are the
    dual twists by s+n of those below.  When n = 2p and s is odd, the
    middle column is its own dual, so alpha_p and y_p sit at both t+p
    and t+p+1.  Each internal degree t+i holds exactly one unknown, so
    alpha_i is read off the Euler characteristic identity against the
    min-bound Hilbert function; the ghost pairs cancel in it.

    Returns (shape, alphas) with alphas[i] for i = 1..n//2.
    """
    t, p, e = s // 2, n // 2, s + n
    ghosts = [Counter() for _ in range(p + 1)]
    for k, y in (ys or {}).items():
        for i in (k - 1, k):
            if i <= p:
                ghosts[i][t + k] += y

    def build(alphas):
        mods = [{0: 1}]
        for i in range(1, p + 1):
            low, high = koszul_module(degrees, i), koszul_module(degrees, n - i)
            if truncate:
                low = Counter({tw: m for tw, m in low.items() if tw <= t + i - 1})
                high = Counter({tw: m for tw, m in high.items() if tw <= t + n - i - 1})
            extra = ghosts[i] + Counter({t + i: alphas[i]})
            if 2 * i == n and s % 2:
                extra += _dual(extra, e)
            mods.append(low + _dual(high, e) + extra)
        mods.extend(_dual(mods[n - i], e) for i in range(p + 1, n + 1))
        return BettiTable.from_modules(mods)

    target = _hf_shifted(rc_min_bound(degrees, n, s, 1), n, e)
    known = build([0] * (p + 1)).euler_coeffs()
    alphas = {}
    for i in range(1, p + 1):
        alphas[i] = (-1) ** i * (target[t + i] - known[t + i])
        if alphas[i] < 0:
            raise InfeasibleError("negative multiplicity at column %d" % i)
    shape = build(alphas)
    if shape.euler_coeffs() != target:
        raise InfeasibleError("Euler identity cannot be satisfied by this layout")
    if not shape.is_self_dual(e):
        raise InfeasibleError("solved shape is not self dual")
    return shape, alphas


def _ci_degrees_upto(n, t, ci_degrees):
    """The CI degrees at most t, sorted, for a Gorenstein shape of socle
    degree 2t or 2t+1 in n variables; a form of higher degree imposes no
    condition."""
    if n < 2 or t < 1:
        raise ParamError("need n >= 2 and t >= 1")
    degrees = sorted(d for d in ci_degrees if d <= t)
    if len(degrees) > n:
        raise ParamError("more CI degrees than variables")
    return degrees


def rc_gor_even(n, t, ci_degrees=()):
    """Resolution shape of a Gorenstein algebra of socle degree 2t that is
    relatively compressed with respect to a general complete intersection.

    Each module is a truncated exterior-power summand, its dual, and one
    extra column R(-t-i)^{alpha_i} solved from the Euler characteristic
    identity (see _gorenstein_shape).  Degrees above t are dropped: such
    a form imposes no condition.
    """
    return _gorenstein_shape(n, 2 * t, _ci_degrees_upto(n, t, ci_degrees))[0]


def compressed_gor_even(n, t):
    """Resolution of a compressed Gorenstein algebra with socle degree 2t:
    rc_gor_even with no complete intersection, so the shape is almost pure,
    R(-t-i)^{alpha_i} in homological position 0 < i < n."""
    return rc_gor_even(n, t)


@dataclass
class OddSocleShape:
    """Resolution shape for odd socle degree 2t+1 with free parameters.

    alphas[i] are the solved multiplicities; the parameters y_2, ..,
    (one per name in y_names) stay free: equal amounts are added to two
    adjacent columns in the same internal degree, so the Euler identity
    holds for every choice.  evaluate() substitutes concrete values.
    """
    n: int
    t: int
    degrees: list
    alphas: dict
    y_names: list

    def evaluate(self, ys=None):
        ys = dict(ys or {})
        for k in ys:
            if k not in self.y_names:
                raise ParamError("unknown parameter y_%d" % k)
            if ys[k] < 0:
                raise ParamError("parameters must be nonnegative")
        return _gorenstein_shape(self.n, 2 * self.t + 1, self.degrees, ys=ys)[0]

    def describe(self):
        """Symbolic rendering, largest homological degree first.

        A parameter is shown on every twist it raises, also where the
        solved multiplicity is 0.
        """
        base = self.evaluate().modules
        marks = {}
        for k in self.y_names:
            for i, col in enumerate(self.evaluate({k: 1}).modules):
                for tw in col - base[i]:
                    marks.setdefault((i, tw), []).append("y%d" % k)
        lines = []
        for i in range(self.n, -1, -1):
            have = base[i]
            parts = []
            for tw in sorted(set(have) | {tw for j, tw in marks if j == i}):
                label = "+".join(([str(have[tw])] if have[tw] else []) + marks.get((i, tw), []))
                name = "R" if tw == 0 else "R(-%d)" % tw
                parts.append(name if label == "1" else name + "^[%s]" % label)
            lines.append("F_%d = %s" % (i, " + ".join(parts) if parts else "0"))
        return lines


def rc_gor_odd_shape(n, t, ci_degrees=()):
    """Shape family for socle degree 2t+1 relative to a complete intersection.

    The Hilbert function pins down only the alpha multiplicities; ghost
    pairs of sizes y_2, y_3, ... in adjacent columns stay undetermined
    and are returned as free parameters of the OddSocleShape.
    """
    degrees = _ci_degrees_upto(n, t, ci_degrees)
    _, alphas = _gorenstein_shape(n, 2 * t + 1, degrees)
    return OddSocleShape(n=n, t=t, degrees=degrees, alphas=alphas,
                         y_names=list(range(2, (n + 3) // 2)))


def quadric_points_resolution(N):
    """h-vector and resolution of N general points on a smooth quadric
    surface in projective 3-space.

    N = i*i + h with 0 < h <= 2i + 1; the h-vector is 1, 3, ..., 2i-1, h
    and the multiplicities are read off the fourth differences of the
    Hilbert function of the points.  Valid for N >= 5: for fewer points
    the quadric is not an extra minimal generator of their ideal.
    """
    if N < 5:
        raise ParamError("need at least 5 points")
    i = math.isqrt(N - 1)
    h = N - i * i
    hvec = [2 * k + 1 for k in range(i)] + [h]

    def delta(seq):
        return [seq[0]] + [seq[k] - seq[k - 1] for k in range(1, len(seq))]

    # fourth differences of the Hilbert function of the points, whose
    # first differences are the h-vector
    d4 = delta(delta(delta(hvec + [0, 0, 0, 0])))
    d4 += [0] * (i + 3 - len(d4))
    di1, di2 = d4[i + 1], d4[i + 2]
    f1 = Counter({2: 1}) + Counter({i: 2 * i + 1 - h, i + 1: max(0, -di1)})
    f2 = {i + 1: max(0, di1), i + 2: max(0, di2)}
    f3 = {i + 2: max(0, -di2), i + 3: h}
    shape = BettiTable.from_modules([{0: 1}, f1, f2, f3])
    return HilbertSeries(hvec), shape


def rc_gor_odd_quadric(t):
    """Resolution of a Gorenstein algebra in 4 variables with socle degree
    2t+1, relatively compressed with respect to a general quadric: the
    conditional shape mrc_resolution(4, (2,), t), defined for t >= 2."""
    if t < 2:
        raise ParamError("need t >= 2")
    return mrc_resolution(4, (2,), t)


def mrc_resolution(n, ci_degrees, t):
    """Conditional odd-socle shape over a complete intersection of
    codimension r <= n-2: the layout of _gorenstein_shape with full
    (untruncated) exterior-power summands.

    The output is only as good as the minimal-resolution hypothesis for
    general points on the intersection; callers should treat it as a
    prediction.
    """
    degrees = sorted(ci_degrees)
    if len(degrees) > n - 2:
        raise ParamError("codimension must be at most n - 2")
    if n < 3 or t < 1:
        raise ParamError("need n >= 3 and t >= 1")
    return _gorenstein_shape(n, 2 * t + 1, degrees, truncate=False)[0]


def mapping_cone_link(ci_degrees, res_i, target_hf=None):
    """Shape of the residual of a link by a complete intersection of the
    given degrees, by dualizing the cone of a comparison map from the
    Koszul shape of the complete intersection to the shape res_i of the
    linked ideal.

    The raw cone puts, in homological position i, the dual-twist of
    K_{n-i} together with the dual-twist of F_{n-i+1} (twisting by the
    degree sum d of the CI).  At every level j = 1..n-1 the twists common
    to the dualized K_j part and the dualized F_j part cancel.

    Cancellation never changes the Euler characteristic, so when a
    target Hilbert function is supplied it is checked as a consistency
    guard rather than used to steer.
    """
    n, d = len(ci_degrees), sum(ci_degrees)
    if res_i.max_index() > n:
        raise ParamError("linked shape is longer than the Koszul shape")
    kparts = {}
    fparts = {}
    for i in range(1, n + 1):
        kparts[i] = _dual(koszul_module(ci_degrees, n - i), d) if i < n else Counter()
        fparts[i] = _dual(res_i.column(n - i + 1), d)
    for j in range(1, n):
        # dualized K_j sits in position n-j, dualized F_j one step higher
        lo, hi = kparts[n - j], fparts[n - j + 1]
        common = lo & hi
        lo -= common
        hi -= common
    shape = BettiTable.from_modules(
        [{0: 1}] + [kparts[i] + fparts[i] for i in range(1, n + 1)])
    if target_hf is not None and not shape.check_euler(target_hf, n):
        raise SplitError("cone shape is inconsistent with the requested Hilbert function")
    return shape


# ---------------------------------------------------------------------------
# almost complete intersections


def aci_resolution(n, degrees):
    """Predicted resolution of n+1 general forms whose degree sum minus n
    is even: the dualized mapping cone of the Koszul shape of the first n
    degrees over the even-socle Gorenstein shape it is linked to.

    The cone is checked against the positive part of h[l] - h[l - d_last],
    h the Hilbert function of the first n (Stanley, Adv. Math. 28, 1978).
    h, a product of the symmetric unimodal 1 + z + ... + z^{d_i - 1}, is
    symmetric and unimodal, so that difference is >= 0 up to (e + d_last)/2
    and <= 0 after it: its positive part is its truncation at the first
    negative coefficient, the Froberg series froberg_prediction(degrees, n).

    Returns (aci shape, intermediate Gorenstein shape).
    """
    degrees = list(degrees)
    if len(degrees) != n + 1:
        raise ParamError("need exactly n + 1 degrees")
    if sorted(degrees) != degrees:
        raise ParamError("degrees must be sorted ascending")
    if degrees[0] < 2:
        raise ParamError("degrees must be at least 2")
    d_head, d_last = degrees[:n], degrees[n]
    e = sum(d_head) - n
    if d_last > e:
        raise ParamError("last degree too large: the ideal would be a complete intersection")
    if d_last == e:
        raise ParamError("last degree equals the socle degree of the first n: "
                         "the linked Gorenstein algebra would have socle degree 0")
    if (sum(degrees) - n) % 2:
        raise ParityError("degree sum minus n must be even")
    gor = rc_gor_even(n, (e - d_last) // 2, d_head)
    shape = mapping_cone_link(d_head, gor, target_hf=froberg_prediction(degrees, n))
    return shape, gor


# ---------------------------------------------------------------------------
# ghost terms

KOSZUL = "KOSZUL"
DUALITY_FORCED = "DUALITY_FORCED"
NON_KOSZUL = "NON_KOSZUL"


@dataclass
class GhostEntry:
    i: int
    j: int
    mult_lower: int
    mult_upper: int
    cls: str
    koszul_lower: int
    koszul_upper: int


@dataclass
class GhostReport:
    entries: list

    def find(self, i, j):
        for e in self.entries:
            if e.i == i and e.j == j:
                return e
        return None

    def lines(self):
        out = []
        for e in self.entries:
            out.append(
                "twist %d between F_%d (x%d) and F_%d (x%d): %s"
                " [subset counts %d / %d]"
                % (e.j, e.i, e.mult_lower, e.i + 1, e.mult_upper, e.cls,
                   e.koszul_lower, e.koszul_upper)
            )
        return out


def ghost_classify(table):
    """Classify repeated twists in consecutive columns of the Betti table
    of an Artinian quotient A = R/I.

    A pair (i, j) with entries in both column i and column i+1 is KOSZUL
    when j is simultaneously a sum of i distinct generator degrees and of
    i+1 distinct ones; DUALITY_FORCED when it is not, but A is Gorenstein
    and the mirror position (n-i-1, socle_twist - j) would be; NON_KOSZUL
    otherwise.  The subset counts are reported so callers can see how many
    copies the Koszul mechanism accounts for.

    Both n and the socle twist are read off the table.  A nonzero Artinian
    A has projective dimension n, so n is the last column.  Column n is
    the socle (beta_{n,j} = dim soc(A)_{j-n}), so A is Gorenstein exactly
    when that column has rank 1, and its one twist is socle_twist = s + n.
    """
    n = table.max_index()
    top = table.column(n)
    socle_twist = next(iter(top)) if sum(top.values()) == 1 else None
    gen_degrees = table.generator_degrees()
    kmax = min(len(gen_degrees), n + 1)
    smax = table.max_twist()
    counts = _subset_sums(gen_degrees, kmax)

    def koszul_at(i, j):
        if not 1 <= i <= kmax - 1 or j < 0 or j > smax:
            return False
        return counts[i].get(j, 0) > 0 and counts[i + 1].get(j, 0) > 0

    entries = []
    for (i, j), m in sorted(table.beta.items()):
        up = table[(i + 1, j)]
        if i < 1 or up == 0:
            continue
        if koszul_at(i, j):
            cls = KOSZUL
        elif socle_twist is not None and koszul_at(n - i - 1, socle_twist - j):
            cls = DUALITY_FORCED
        else:
            cls = NON_KOSZUL
        entries.append(
            GhostEntry(
                i=i,
                j=j,
                mult_lower=m,
                mult_upper=up,
                cls=cls,
                koszul_lower=counts[i].get(j, 0) if i <= kmax else 0,
                koszul_upper=counts[i + 1].get(j, 0) if i + 1 <= kmax else 0,
            )
        )
    return GhostReport(entries)
