"""Tools for Hilbert functions, linkage, and minimal free resolutions of
Artinian quotients squeezed inside a complete intersection.

The package computes exactly over GF(p): Hilbert series predictors and
bounds (`series`), closed-form resolution shapes (`betti`), and an exact
engine for quotient algebras, linkage, and inverse systems (`engine`),
all exposed through the `relcomp` command line tool (`cli`).
"""

from .series import (
    HilbertSeries,
    froberg_prediction,
    froberg_truncate,
    rational_series,
    rc_upper_bound_liaison,
    rc_min_bound,
    compressed_level_hf,
    linkage_hf,
)
from .betti import (
    BettiTable,
    koszul_module,
    koszul_shape,
    compressed_gor_even,
    rc_gor_even,
    rc_gor_odd_shape,
    rc_gor_odd_quadric,
    quadric_points_resolution,
    mrc_resolution,
    aci_resolution,
    mapping_cone_link,
    ghost_classify,
)
from .ring import RingCtx, HomogPoly, FormStream, contraction_map
from .engine import (
    GradedIdeal,
    QuotientBasis,
    hilbert_function,
    betti_numbers,
    minimal_generators,
    socle,
    ideal_quotient,
    annihilator_ideal,
    perp_basis,
    is_relatively_compressed,
    general_forms,
    general_element,
    ci_in,
)
from .errors import RelcompError

__version__ = "0.1.0"
