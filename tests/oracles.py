"""Independent reference computations that the engine is tested against.

betti_numbers_syzygy resolves R/I by iterated syzygies: it takes the
kernel of each presentation matrix degree by degree and keeps the kernel
vectors that the shifts of those found before it do not span.  Unlike
relcomp.engine.betti_numbers it uses no Koszul homology, no rank rule and
no generator count of the model's sieve.
"""

from collections import Counter

import numpy as np

from relcomp.betti import BettiTable
from relcomp.engine import hilbert_function
from relcomp.errors import NotArtinianError
from relcomp.gfp import PrimeMatrix, kernel_basis, rref
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
