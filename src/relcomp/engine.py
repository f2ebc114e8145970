"""
Ground-truth computations on concrete graded ideals over GF(p).

The central object is QuotientBasis, an incremental model of the graded
algebra A = R/I.  Instead of row-reducing the (large) span of I inside
each R_d, the degree d piece of A is constructed as a quotient of
x_1*A_{d-1} + ... + x_n*A_{d-1} by the commutation relations
x_j*(x_k*b) = x_k*(x_j*b) and by the images of the degree d generators.
All matrices involved have sizes bounded by n * dim A_{d-1}, which for
Artinian quotients stays small even when dim R_d is in the thousands.
The per-degree data are: an abstract basis, multiplication matrices for
each variable, and a reduction table sending every monomial of R_d to
its class.

On top of that sit Hilbert functions, graded Betti numbers via the
homology of the Koszul complex tensored with A, minimal generator
counts, socle profiles, colon ideals (linkage), inverse-system
annihilators, perpendicular spaces, and the relative-compression
verdict.  A brute-force iterated-syzygy computation of Betti numbers is
kept as an independent cross-check for small instances.
"""

import itertools

import numpy as np
from dataclasses import dataclass, field

from .betti import BettiTable
from .errors import (
    CapError,
    DegreeError,
    NotArtinianError,
    NotContainedError,
    ParamError,
)
from .gfp import PrimeMatrix, kernel_basis, rank, rref, stack
from .ring import HomogPoly, contract_by_poly, contraction_map
from .series import HilbertSeries, linkage_hf, rc_min_bound, rc_upper_bound_liaison

__all__ = [
    "GradedIdeal",
    "QuotientBasis",
    "SocleProfile",
    "CompressionVerdict",
    "hilbert_function",
    "betti_numbers",
    "betti_numbers_syzygy",
    "minimal_generators",
    "socle",
    "ideal_quotient",
    "annihilator_ideal",
    "perp_basis",
    "is_relatively_compressed",
    "general_forms",
    "general_element",
    "ci_in",
]


class GradedIdeal:
    """A homogeneous ideal given by generators, with provenance data."""

    def __init__(self, ring, gens, provenance=None):
        self.ring = ring
        self.gens = list(gens)
        for g in self.gens:
            if g.is_zero():
                raise ParamError("zero generator")
        self.provenance = provenance or {}

    def degrees(self):
        return sorted(g.degree for g in self.gens)

    def __repr__(self):
        return "GradedIdeal(n=%d, p=%d, degrees=%s)" % (
            self.ring.n,
            self.ring.p,
            self.degrees(),
        )


class QuotientBasis:
    """Per-degree model of A = R/I: abstract bases, multiplication
    matrices and monomial reduction tables, built degree by degree.

    Generators can also be fed in incrementally with add_generator, as
    long as each arrives before its degree is built; this is how colon
    ideals and annihilators assemble their output while measuring it.
    """

    def __init__(self, ring, gens=()):
        self.ring = ring
        self.gens_by_degree = {}
        self._unit = False
        self._dims = {0: 1}
        # _mult[(k, d)]: class of x_{k+1} * (-): A_d -> A_{d+1}
        self._mult = {}
        # _table[d]: matrix (dim A_d) x (dim R_d) reducing monomials
        self._table = {0: PrimeMatrix(np.ones((1, 1), dtype=np.int64), ring.p)}
        self._top = 0
        for g in gens:
            self.add_generator(g)

    def add_generator(self, g):
        if g.degree == 0:
            self._unit = True
            return
        if g.degree <= self._top:
            # drop everything from the generator's degree on and rebuild lazily
            for d in range(g.degree, self._top + 1):
                del self._dims[d]
                del self._table[d]
                for k in range(self.ring.n):
                    self._mult.pop((k, d - 1), None)
            self._top = g.degree - 1
        self.gens_by_degree.setdefault(g.degree, []).append(g)

    def dim(self, d):
        if d < 0 or self._unit:
            return 0
        while self._top < d:
            self._build(self._top + 1)
        return self._dims[d]

    def mult(self, k, d):
        """Multiplication by x_{k+1} as a matrix A_d -> A_{d+1} (k 0-based)."""
        self.dim(d + 1)
        key = (k, d)
        if key not in self._mult:
            # source or target is zero
            return PrimeMatrix(
                np.zeros((self._dims[d + 1], self._dims[d]), dtype=np.int64),
                self.ring.p,
            )
        return self._mult[key]

    def table(self, d):
        if self._unit:
            return PrimeMatrix(
                np.zeros((0, self.ring.dim(d)), dtype=np.int64), self.ring.p
            )
        self.dim(d)
        return self._table[d]

    def reduce(self, f):
        """Class of a homogeneous polynomial in A, as a coordinate vector."""
        t = self.table(f.degree)
        return t.matmul(PrimeMatrix(f.coeffs.reshape(-1, 1), self.ring.p)).a.ravel()

    def reduce_rows(self, vectors, d):
        """Classes of row vectors (coefficients in R_d); rows of the result."""
        t = self.table(d)
        v = PrimeMatrix(np.asarray(vectors, dtype=np.int64), self.ring.p)
        return PrimeMatrix(t.matmul(PrimeMatrix(v.a.T, self.ring.p)).a.T, self.ring.p)

    def _build(self, d):
        ring = self.ring
        n, p = ring.n, ring.p
        a1 = self._dims[d - 1]
        a2 = self._dims.get(d - 2, 0)
        vdim = n * a1
        gens_d = self.gens_by_degree.get(d, [])
        if vdim == 0:
            self._dims[d] = 0
            self._table[d] = PrimeMatrix(
                np.zeros((0, ring.dim(d)), dtype=np.int64), p
            )
            self._top = d
            return
        rel_rows = []
        # commutation relations through the previous multiplication maps
        for j in range(n):
            mj = self.mult_built(j, d - 2, a2, a1)
            for k in range(j + 1, n):
                mk = self.mult_built(k, d - 2, a2, a1)
                for b in range(a2):
                    row = np.zeros(vdim, dtype=np.int64)
                    row[j * a1:(j + 1) * a1] = mk.a[:, b]
                    row[k * a1:(k + 1) * a1] = (-mj.a[:, b]) % p
                    rel_rows.append(row)
        # images of the new generators: g = sum_k x_k g_k with g_k read off
        # by stripping the first variable of each monomial
        prev_table = self._table[d - 1]
        strips = ring.strip(d)
        if gens_d:
            coeffs = np.array([g.coeffs for g in gens_d])
            rel_rows.extend(np.hstack([
                PrimeMatrix(coeffs[:, cols], p).matmul(
                    PrimeMatrix(prev_table.a[:, prev].T, p)).a
                for cols, prev in strips
            ]))
        if rel_rows:
            red, pivots = rref(PrimeMatrix(np.array(rel_rows), p))
        else:
            red, pivots = None, []
        pivset = set(pivots)
        std = [c for c in range(vdim) if c not in pivset]
        ad = len(std)
        # vred: coordinates of any V-vector in the chosen basis of A_d
        vred = np.zeros((ad, vdim), dtype=np.int64)
        for i, c in enumerate(std):
            vred[i, c] = 1
        if pivots:
            vred[:, pivots] = (-red.a[: len(pivots), std].T) % p
        self._dims[d] = ad
        for k in range(n):
            self._mult[(k, d - 1)] = PrimeMatrix(
                vred[:, k * a1:(k + 1) * a1], p
            )
        # monomial reduction table for degree d
        table = np.zeros((ad, ring.dim(d)), dtype=np.int64)
        if ad:
            for k, (cols, prev) in enumerate(strips):
                sub = PrimeMatrix(prev_table.a[:, prev], p)
                table[:, cols] = self._mult[(k, d - 1)].matmul(sub).a
        self._table[d] = PrimeMatrix(table, p)
        self._top = d

    def mult_built(self, k, d, a_from, a_to):
        """mult(k, d) when degree d+1 is already built (helper for _build)."""
        if d < 0 or a_from == 0:
            return PrimeMatrix(np.zeros((a_to, a_from), dtype=np.int64), self.ring.p)
        return self._mult[(k, d)]


def _default_cap(ideal):
    degrees = ideal.degrees()
    n = ideal.ring.n
    if degrees and degrees[0] == 0:
        return 0
    if len(degrees) < n:
        return None
    return sum(degrees[-n:]) - n + 1


def hilbert_function(ideal, cap=None):
    """Hilbert function of R/I, exact when it reaches zero."""
    if cap is None:
        cap = _default_cap(ideal)
        if cap is None:
            raise CapError("fewer generators than variables: a cap is required")
    qb = ideal if isinstance(ideal, QuotientBasis) else QuotientBasis(ideal.ring, ideal.gens)
    coeffs = []
    for d in range(cap + 1):
        h = qb.dim(d)
        coeffs.append(h)
        if h == 0:
            return HilbertSeries(coeffs, exact=True)
    return HilbertSeries(coeffs, exact=False)


def _artinian_quotient(ideal, cap):
    """Model and exact Hilbert function of an Artinian R/I.

    A proper ideal with fewer than n generators has height < n (Krull).
    Otherwise, with D the largest generator degree, n general elements of
    I_D form a regular sequence over the algebraic closure, so an Artinian
    R/I vanishes in degree n(D - 1) + 1; that is where the probe stops.
    """
    degrees, n = ideal.degrees(), ideal.ring.n
    if len(degrees) < n and 0 not in degrees:
        raise NotArtinianError("fewer than %d generators: R/I is not Artinian" % n)
    limit = cap if cap is not None else n * (max(degrees) - 1) + 1
    qb = QuotientBasis(ideal.ring, ideal.gens)
    coeffs = []
    d = 0
    while True:
        h = qb.dim(d)
        coeffs.append(h)
        if h == 0:
            break
        if d >= limit:
            raise NotArtinianError("quotient still alive at degree %d" % d)
        d += 1
    return qb, HilbertSeries(coeffs, exact=True)


def betti_numbers(ideal, cap=None):
    """Graded Betti numbers of R/I as the homology of the Koszul complex
    on the variables tensored with R/I.

    Sign convention: d(a (x) e_{l_1 < ... < l_i}) =
    sum_k (-1)^(k+1) x_{l_k} a (x) e_{S \\ l_k}.
    """
    ring = ideal.ring
    n = ring.n
    qb, hf = _artinian_quotient(ideal, cap if cap is not None else _default_cap(ideal))
    s = hf.top_degree()
    adim = [qb.dim(d) for d in range(s + 2)]

    subsets = {i: list(itertools.combinations(range(n), i)) for i in range(n + 1)}
    sub_index = {i: {S: t for t, S in enumerate(subsets[i])} for i in range(n + 1)}

    def boundary_rank(i, j):
        """rank of d_i in internal degree j."""
        if i < 1 or i > n:
            return 0
        e = j - i  # internal degree of the coefficients in the source
        if e < 0 or e > s or adim[e] == 0:
            return 0
        src = subsets[i]
        tgt = sub_index[i - 1]
        rows = adim[e + 1] * len(subsets[i - 1])
        cols = adim[e] * len(src)
        if rows == 0 or cols == 0:
            return 0
        m = np.zeros((rows, cols), dtype=np.int64)
        for ci, S in enumerate(src):
            for k, l in enumerate(S):
                T = S[:k] + S[k + 1:]
                sign = 1 if k % 2 == 0 else -1
                blk = qb.mult(l, e).a
                r0 = tgt[T] * adim[e + 1]
                c0 = ci * adim[e]
                m[r0:r0 + adim[e + 1], c0:c0 + adim[e]] = (sign * blk) % ring.p
        return rank(PrimeMatrix(m, ring.p))

    beta = {}
    ranks = {}
    for i in range(0, n + 1):
        for j in range(i, s + i + 1):
            e = j - i
            cdim = adim[e] * len(subsets[i]) if 0 <= e <= s else 0
            if cdim == 0:
                continue
            r_i = ranks.get((i, j))
            if r_i is None:
                r_i = boundary_rank(i, j)
                ranks[(i, j)] = r_i
            r_next = ranks.get((i + 1, j))
            if r_next is None:
                r_next = boundary_rank(i + 1, j)
                ranks[(i + 1, j)] = r_next
            b = (cdim - r_i) - r_next
            if b:
                beta[(i, j)] = b
    return BettiTable(beta)


def minimal_generators(ideal, cap=None):
    """Degrees and counts of a minimal generating set of the ideal.

    Processes the given generators in degree order through an
    incrementally built quotient; a generator counts in degree d exactly
    when its class modulo the lower-degree part is nonzero and
    independent of the classes of its peers.
    """
    ring = ideal.ring
    qb = QuotientBasis(ring)
    by_degree = {}
    for g in ideal.gens:
        by_degree.setdefault(g.degree, []).append(g)
    out = []
    for d in sorted(by_degree):
        if qb.dim(d) == 0:
            break
        vecs = [qb.reduce(g) for g in by_degree[d]]
        m = PrimeMatrix(np.array(vecs), ring.p)
        red, pivots = rref(m)
        count = len(pivots)
        if count:
            out.append((d, count))
        for g in by_degree[d]:
            qb.add_generator(g)
        if cap is not None and d >= cap:
            break
    return out


@dataclass
class SocleProfile:
    """Socle degrees with multiplicities, smallest degree first."""

    degrees: list

    @property
    def cm_type(self):
        return len(self.degrees)

    @property
    def is_level(self):
        return len(set(self.degrees)) == 1

    @property
    def is_gorenstein(self):
        return len(self.degrees) == 1

    @property
    def socle_degree(self):
        return max(self.degrees)

    def text(self):
        return "(" + ", ".join(str(d) for d in self.degrees) + ")"


def socle(ideal, cap=None):
    """Socle profile of an Artinian quotient: per degree, the common
    kernel of multiplication by every variable."""
    qb, hf = _artinian_quotient(ideal, cap)
    s = hf.top_degree()
    n = ideal.ring.n
    degrees = []
    for d in range(s + 1):
        a = qb.dim(d)
        if a == 0:
            continue
        m = stack([qb.mult(k, d) for k in range(n)])
        k = a - rank(m)
        degrees.extend([d] * k)
    return SocleProfile(degrees)


def _new_generator_rows(build_qb, kernel_rows, d, want):
    """Pick rows from a kernel basis whose classes in the partial
    quotient are independent; returns (chosen row indices)."""
    if want == 0:
        return []
    reduced = build_qb.reduce_rows(kernel_rows, d)
    red, pivots = rref(PrimeMatrix(reduced.a.T, build_qb.ring.p))
    # pivots of the transposed matrix index independent rows
    return list(pivots[:want])


def ideal_quotient(c, ideal, cap=None):
    """The colon ideal c : I, with generators found degree by degree.

    Membership of f in degree d is the vanishing of f*g_k in R/c for
    every generator g_k of I; the kernel is then sifted through an
    incrementally built quotient to extract minimal generators.
    """
    ring = c.ring
    qc = QuotientBasis(ring, c.gens)
    h_c = hilbert_function(c)
    if not h_c.exact:
        raise NotArtinianError("the linking ideal must be Artinian")
    e = h_c.top_degree()
    # containment precheck
    qi = QuotientBasis(ring, ideal.gens)
    for g in c.gens:
        if qi.reduce(g).any():
            raise NotContainedError(
                "a degree %d generator of the linking ideal is not in the ideal"
                % g.degree
            )
    if cap is None:
        cap = e + 1
    build = QuotientBasis(ring)
    gens = []
    for d in range(cap + 1):
        bdim = build.dim(d)
        if bdim == 0:
            break
        blocks = []
        for g in ideal.gens:
            target = d + g.degree
            if target > e:
                continue  # R/c vanishes there: no condition
            m = ring.mult_map(g, d)
            blocks.append(qc.table(target).matmul(m))
        if blocks:
            ker = kernel_basis(stack(blocks))
        else:
            ker = PrimeMatrix(np.eye(ring.dim(d), dtype=np.int64), ring.p)
        jdim = ker.rows
        want = jdim - (ring.dim(d) - bdim)
        if want < 0:
            raise ParamError("inconsistent quotient dimensions (bug)")
        if want:
            for idx in _new_generator_rows(build, ker.a, d, want):
                g = HomogPoly(ring, d, ker.a[idx])
                gens.append(g)
                build.add_generator(g)
    else:
        if build.dim(cap) != 0 and cap < e + 1:
            raise CapError("generators may exist beyond degree %d" % cap)
    prov = {
        "recipe": [
            "quotient",
            c.provenance.get("recipe"),
            ideal.provenance.get("recipe"),
        ]
    }
    return GradedIdeal(ring, gens, prov)


def annihilator_ideal(f_list, cap=None):
    """The ideal of operators annihilating every given dual form.

    Degree d membership is the joint kernel of the contraction maps of
    the forms of degree >= d; generators are extracted as in
    ideal_quotient.  Small characteristic can degenerate the pairing
    (falling factorials vanish mod p), which is allowed but worth
    remembering when interpreting results.
    """
    if not f_list:
        raise ParamError("need at least one dual form")
    ring = f_list[0].ring
    smax = max(f.degree for f in f_list)
    if cap is None:
        cap = smax + 1
    build = QuotientBasis(ring)
    gens = []
    for d in range(1, cap + 1):
        bdim = build.dim(d)
        if bdim == 0:
            break
        blocks = [contraction_map(f, d) for f in f_list if f.degree >= d]
        if blocks:
            ker = kernel_basis(stack(blocks))
        else:
            ker = PrimeMatrix(np.eye(ring.dim(d), dtype=np.int64), ring.p)
        want = ker.rows - (ring.dim(d) - bdim)
        if want < 0:
            raise ParamError("inconsistent quotient dimensions (bug)")
        if want:
            for idx in _new_generator_rows(build, ker.a, d, want):
                g = HomogPoly(ring, d, ker.a[idx])
                gens.append(g)
                build.add_generator(g)
    return GradedIdeal(ring, gens, {"recipe": ["ann", len(f_list), smax]})


def perp_basis(c, j):
    """Basis of the perpendicular of the degree j piece of an ideal,
    inside the dual space of degree j forms.

    A dual form F is perpendicular to c_j exactly when every generator
    of degree <= j contracts F to zero.
    """
    ring = c.ring
    blocks = [contract_by_poly(g, j) for g in c.gens if g.degree <= j]
    if not blocks:
        ker = PrimeMatrix(np.eye(ring.dim(j), dtype=np.int64), ring.p)
    else:
        ker = kernel_basis(stack(blocks))
    return [HomogPoly(ring, j, row) for row in ker.a]


MEETS_CONJECTURED_BOUND = "MEETS_CONJECTURED_BOUND"
BELOW_BOUND = "BELOW_BOUND"
EXCEEDS_BOUND = "EXCEEDS_BOUND"


@dataclass
class CompressionVerdict:
    hf: HilbertSeries
    socle: SocleProfile
    min_bound: HilbertSeries
    liaison_bound: HilbertSeries
    verdict: str
    below_degrees: list = field(default_factory=list)
    exceed_degrees: list = field(default_factory=list)
    below_min_bound: list = field(default_factory=list)
    below_liaison: list = field(default_factory=list)


def is_relatively_compressed(ideal, c, cap=None):
    """Compare the Hilbert function of R/I against both upper bounds for
    quotients of R/c with the observed socle profile.

    The operational verdict is MEETS_CONJECTURED_BOUND when the HF
    equals the pointwise minimum of the two bounds; EXCEEDS_BOUND would
    indicate a bug in the bounds or the computation.
    """
    ring = ideal.ring
    qi = QuotientBasis(ring, ideal.gens)
    for g in c.gens:
        if qi.reduce(g).any():
            raise NotContainedError("the comparison ideal is not contained")
    hf = hilbert_function(ideal, cap) if cap else hilbert_function(ideal)
    if not hf.exact:
        raise NotArtinianError("quotient is not Artinian within the cap")
    prof = socle(ideal, cap)
    ci_degrees = c.degrees()
    s = prof.socle_degree
    cdim = prof.degrees.count(s)
    minb = rc_min_bound([d for d in ci_degrees if d <= s], ring.n, s, cdim)
    liaison = rc_upper_bound_liaison(ci_degrees, prof.degrees, ring.n).series
    top = max(hf.top_degree(), minb.top_degree(), liaison.top_degree())
    below, exceed, below_min, below_li = [], [], [], []
    for d in range(top + 1):
        bound = min(minb[d], liaison[d])
        if hf[d] < minb[d]:
            below_min.append(d)
        if hf[d] < liaison[d]:
            below_li.append(d)
        if hf[d] < bound:
            below.append(d)
        elif hf[d] > bound:
            exceed.append(d)
    if exceed:
        verdict = EXCEEDS_BOUND
    elif below:
        verdict = BELOW_BOUND
    else:
        verdict = MEETS_CONJECTURED_BOUND
    return CompressionVerdict(
        hf=hf,
        socle=prof,
        min_bound=minb,
        liaison_bound=liaison,
        verdict=verdict,
        below_degrees=below,
        exceed_degrees=exceed,
        below_min_bound=below_min,
        below_liaison=below_li,
    )


# ---------------------------------------------------------------------------
# constructions


def general_forms(ring, degrees, stream):
    """Ideal of seeded random forms of the given degrees."""
    gens = stream.forms(sorted(degrees))
    prov = {
        "recipe": ["general-forms"] + sorted(degrees),
        "seed": stream.seed,
        "n": ring.n,
        "p": ring.p,
    }
    return GradedIdeal(ring, gens, prov)


def general_element(ideal, d, stream):
    """A random element of the ideal of degree d: a random-coefficient
    combination of the generators of degree <= d."""
    ring = ideal.ring
    f = ring.zero(d)
    for g in ideal.gens:
        if g.degree > d:
            continue
        r = stream.form(d - g.degree)
        f = f + r * g
    if f.is_zero():
        raise ParamError("random element of degree %d came out zero" % d)
    return f


def ci_in(ideal, degrees, stream):
    """General elements of the ideal in the given degrees (the usual way
    to choose a complete intersection inside an ideal before linking)."""
    gens = [general_element(ideal, d, stream) for d in sorted(degrees)]
    prov = {
        "recipe": ["ci-in", sorted(degrees), ideal.provenance.get("recipe")],
        "seed": stream.seed,
    }
    return GradedIdeal(ideal.ring, gens, prov)


# ---------------------------------------------------------------------------
# independent small-instance oracle: iterated syzygies


def betti_numbers_syzygy(ideal, cap=None):
    """Betti numbers by explicitly computing kernels of presentation
    matrices stage by stage and minimalizing.  Exponentially more work
    than the homological route; intended for small cross-checks only.
    """
    ring = ideal.ring
    n = ring.n
    hf = hilbert_function(ideal, cap) if cap is not None else hilbert_function(ideal)
    if not hf.exact:
        raise NotArtinianError("oracle requires an Artinian quotient")
    s = hf.top_degree()
    beta = {(0, 0): 1}
    # stage 1: minimal generators
    mingens = []
    qb = QuotientBasis(ring)
    by_degree = {}
    for g in ideal.gens:
        by_degree.setdefault(g.degree, []).append(g)
    for d in sorted(by_degree):
        if qb.dim(d) == 0:
            break
        vecs = np.array([qb.reduce(g) for g in by_degree[d]])
        red, pivots = rref(PrimeMatrix(vecs.T, ring.p))
        for idx in pivots:
            mingens.append(by_degree[d][idx])
        for g in by_degree[d]:
            qb.add_generator(g)
    for g in mingens:
        beta[(1, g.degree)] = beta.get((1, g.degree), 0) + 1

    # subsequent stages: kernel of column maps into the previous stage
    # a stage is a list of (degree, components) with components a list of
    # HomogPoly (or None for zero) targeting the previous stage's degrees
    target_degrees = [0]
    columns = [(g.degree, [g]) for g in mingens]
    for i in range(2, n + 2):
        target_degrees, columns, found = _syzygy_stage(
            ring, target_degrees, columns, s + i
        )
        for d, cnt in found.items():
            beta[(i, d)] = beta.get((i, d), 0) + cnt
        if not columns:
            break
    return BettiTable(beta)


def _stage_matrix(ring, target_degrees, columns, m):
    """Matrix of the stage map in internal degree m."""
    row_blocks = [ring.dim(m - t) for t in target_degrees]
    row_off = np.concatenate([[0], np.cumsum(row_blocks)])
    col_blocks = [ring.dim(m - d) for d, _ in columns]
    a = np.zeros((int(row_off[-1]), int(sum(col_blocks))), dtype=np.int64)
    c0 = 0
    for (d, comps) in columns:
        w = ring.dim(m - d)
        if w:
            for t_i, comp in enumerate(comps):
                if comp is None or m - target_degrees[t_i] < 0:
                    continue
                blk = ring.mult_map(comp, m - d).a
                r0 = int(row_off[t_i])
                a[r0:r0 + blk.shape[0], c0:c0 + w] = blk
        c0 += w
    return PrimeMatrix(a, ring.p)


def _syzygy_stage(ring, target_degrees, columns, top):
    """Minimal generators of the kernel of one stage map."""
    new_columns = []
    found = {}
    degs = [d for d, _ in columns]
    for m in range(min(degs), top + 1):
        matrix = _stage_matrix(ring, target_degrees, columns, m)
        ker = kernel_basis(matrix)
        if ker.rows == 0:
            continue
        # span of shifts of previously found kernel generators
        old = _stage_matrix(ring, degs, new_columns, m) if new_columns else None
        if old is not None and old.cols:
            _, pivots = rref(stack([PrimeMatrix(old.a.T, ring.p), ker]))
            base = rank(PrimeMatrix(old.a.T, ring.p))
            fresh = len(pivots) - base
        else:
            fresh = ker.rows
        if fresh <= 0:
            continue
        # pick kernel rows independent from the old span
        chosen = []
        if old is not None and old.cols:
            running = PrimeMatrix(old.a.T, ring.p)
            base = rank(running)
            for r in range(ker.rows):
                cand = stack([running, PrimeMatrix(ker.a[r:r + 1], ring.p)])
                rk = rank(cand)
                if rk > base:
                    chosen.append(r)
                    running = cand
                    base = rk
                if len(chosen) == fresh:
                    break
        else:
            chosen = list(range(fresh))
        for r in chosen:
            comps = _split_components(ring, ker.a[r], degs, m)
            new_columns.append((m, comps))
        found[m] = found.get(m, 0) + len(chosen)
    return degs, new_columns, found


def _split_components(ring, vec, degs, m):
    comps = []
    off = 0
    for d in degs:
        w = ring.dim(m - d)
        if w == 0:
            comps.append(None)
        else:
            seg = vec[off:off + w]
            comps.append(HomogPoly(ring, m - d, seg) if seg.any() else None)
        off += w
    return comps
