"""Independent reference computations that the engine is tested against.

betti_numbers_syzygy resolves R/I by iterated syzygies: it takes the
kernel of each presentation matrix degree by degree and keeps the kernel
vectors that the shifts of those found before it do not span.  Unlike
relcomp.engine.betti_numbers it uses no Koszul homology, no rank rule and
no generator count of the model's sieve.

sift_generators is the eager sieve that colon ideals once ran: the joint
kernel of membership blocks (kernel_rows), sifted degree by degree through
the QuotientBasis constructor.

perp_picks_by_basis is the draw that perp_picks once made: each pick is a
random combination of the rows of kernel_basis of the contraction maps,
scattered from the monomial sums rather than read off mult_map.

socle_dim_by_rank eliminates the socle in every degree, the reference for
the degrees that QuotientBasis.socle_dim reads off the dual generators.

differentiation_map is the apolarity that contraction replaced, a variable
acting as a partial derivative; divided_powers(F) has under contraction the
annihilator that F has under differentiation, in degrees below p.

NumpyFormStream is the draw that FormStream once made through numpy's
Generator, np.random.default_rng([seed, n, p]).integers(0, p).
"""

import math
from collections import Counter

import numpy as np

from relcomp.betti import BettiTable
from relcomp.engine import QuotientBasis, hilbert_function
from relcomp.errors import InternalError, NotArtinianError, ParamError
from relcomp.gfp import PrimeMatrix, kernel_basis, rank, rref, stack
from relcomp.ring import HomogPoly


def betti_numbers_syzygy(ideal):
    """Betti numbers by explicitly computing kernels of presentation
    matrices stage by stage and minimalizing.  Exponentially more work
    than the homological route; intended for small cross-checks only.
    """
    ring = ideal.ring
    n = ring.n
    hf = hilbert_function(ideal)
    if not hf.exact:
        raise NotArtinianError("oracle requires an Artinian quotient")
    s = hf.top_degree()
    beta = {(0, 0): 1}
    # stage 1: a given generator is minimal when it is a pivot past the
    # span of the shifts of the minimal generators found before it
    columns = []
    for m in sorted({g.degree for g in ideal.gens}):
        given = [(m, [g]) for g in ideal.gens if g.degree == m]
        old = sum(ring.dim(m - d) for d, _ in columns)
        _, pivots = rref(_stage_matrix(ring, [0], columns + given, m))
        columns += [given[c - old] for c in pivots if c >= old]
    beta.update(((1, d), k) for d, k in Counter(d for d, _ in columns).items())

    # subsequent stages: kernel of column maps into the previous stage
    # a stage is a list of (degree, components) with components a list of
    # HomogPoly (or None for zero) targeting the previous stage's degrees
    target_degrees = [0]
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
        # kernel rows independent from the span of shifts of previously
        # found kernel generators: the pivot columns past that span
        old = _stage_matrix(ring, degs, new_columns, m)
        _, pivots = rref(PrimeMatrix(np.hstack([old.a, ker.a.T]), ring.p))
        chosen = [c - old.cols for c in pivots if c >= old.cols]
        for r in chosen:
            comps = _split_components(ring, ker.a[r], degs, m)
            new_columns.append((m, comps))
        if chosen:
            found[m] = len(chosen)
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


def monomials_recursive(n, d):
    """All exponent tuples of length n with sum d, lex descending, by
    recursion on the first exponent: the reference for ring._monomials."""
    if n == 1:
        return [(d,)]
    out = []
    for a in range(d, -1, -1):
        for tail in monomials_recursive(n - 1, d - a):
            out.append((a,) + tail)
    return out


def sift_generators(ring, degrees, candidates):
    """The model of the rows of candidates(d), d in degrees, sifted degree
    by degree; the generators it keeps are its gens.  candidates(d) gives
    the rows (a PrimeMatrix) and the dim A_d they leave: when they add
    generators, a new model is constructed on the generators kept so far
    and these rows, and any other dim raises InternalError.  Stops where
    the model vanishes."""
    model = QuotientBasis(ring)
    for d in degrees:
        if model.dim(d) == 0:
            break
        rows, target = candidates(d)
        if model.dim(d) > target:
            model = QuotientBasis(ring, model.gens + [HomogPoly(ring, d, r) for r in rows.a])
        if model.dim(d) != target:
            raise InternalError("inconsistent quotient dimensions in degree %d" % d)
    return model


def kernel_rows(ring, d, blocks):
    """The joint kernel of the blocks in R_d (all of R_d when there are
    none), as the rows of a PrimeMatrix, and dim R_d minus its dimension."""
    ker = kernel_basis(stack([PrimeMatrix.zeros(0, ring.dim(d), ring.p)] + blocks))
    return ker, ring.dim(d) - ker.rows


def contraction_by(g, j):
    """Matrix of F -> g o F from dual degree j to dual degree j - deg g:
    column r + a holds the coefficient of g at a in row r."""
    ring, e = g.ring, g.degree
    a = np.zeros((ring.dim(j - e), ring.dim(j)), dtype=np.int64)
    a[np.arange(ring.dim(j - e))[:, None], ring.sum_index(j - e, e)] = g.coeffs
    return PrimeMatrix._trusted(a, ring.p)


def perp_picks_by_basis(c, j, count, stream):
    """count nonzero random elements of the perpendicular of c_j, each the
    product of stream.coefficients(dim) with the kernel basis of the
    stacked contraction maps; zero draws are drawn again."""
    blocks = [contraction_by(g, j) for g in c.gens if g.degree <= j]
    basis = kernel_basis(stack([PrimeMatrix.zeros(0, c.ring.dim(j), c.ring.p)] + blocks))
    if not basis.rows:
        raise ParamError("the perpendicular space is zero in degree %d" % j)
    out = []
    while len(out) < count:
        row = PrimeMatrix._trusted(stream.coefficients(basis.rows)[None, :], basis.p)
        f = HomogPoly(c.ring, j, row.matmul(basis).a[0])
        if not f.is_zero():
            out.append(f)
    return out


def socle_dim_by_rank(model, d):
    """dim soc(A)_d by elimination: dim A_d minus the rank of the stacked
    multiplications A_d -> A_{d+1} by the variables."""
    mults = stack([model.mult(k, d) for k in range(model.ring.n)])
    return model.dim(d) - rank(mults)


def differentiation_map(F, d):
    """Matrix of the differentiation action of degree d operators on F:
    x^a o y^(r + a) = prod_i (r_i + a_i)! / r_i! y^r mod p.  The weights are
    built factor by factor, so they vanish exactly where p divides one."""
    ring, s = F.ring, F.degree
    if d > s:
        raise ParamError("cannot differentiate a degree %d form by degree %d" % (s, d))
    # falling[x, y] = (x + y)! / x! mod p
    falling = np.ones((s - d + 1, d + 1), dtype=np.int64)
    for y in range(1, d + 1):
        falling[:, y] = falling[:, y - 1] * (np.arange(s - d + 1) + y) % ring.p
    r, a = ring.exponents(s - d), ring.exponents(d)
    w = np.ones((len(r), len(a)), dtype=np.int64)
    for i in range(ring.n):
        w = w * falling[r[:, i, None], a[None, :, i]] % ring.p
    return PrimeMatrix._trusted(F.coeffs[ring.sum_index(s - d, d)] * w % ring.p, ring.p)


def divided_powers(F):
    """w . F with w_m = prod_i m_i! mod p.  x^a contracts y^(r + a) of it to
    (r + a)! F_(r+a) y^r, r! times what x^a differentiates F to, so for
    deg F < p the catalecticants of the two differ by a unit row scaling."""
    w = [math.prod(map(math.factorial, m)) % F.ring.p
         for m in F.ring.exponents(F.degree).tolist()]
    return HomogPoly(F.ring, F.degree, F.coeffs * np.array(w, dtype=np.int64))


class NumpyFormStream:
    """FormStream's form and coefficients drawn by numpy's Generator."""

    def __init__(self, ring, seed=1):
        self.ring = ring
        self._rng = np.random.default_rng([seed, ring.n, ring.p])

    def form(self, d):
        while True:
            v = self.coefficients(self.ring.dim(d))
            if v.any() or d < 0:
                return HomogPoly(self.ring, d, v)

    def coefficients(self, count):
        return self._rng.integers(0, self.ring.p, size=count, dtype=np.int64)
