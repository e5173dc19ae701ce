"""Fusion rings, fusion bialgebras, and analytic obstructions to
unitary categorification.

The package is organized around six layers:

* :mod:`fusionforge.rings` -- the fusion-ring data model, axiom
  verification, Frobenius-Perron dimensions, structural predicates,
  subrings, isomorphism, and the coefficient bounds;
* :mod:`fusionforge.spectral` -- character tables of commutative rings,
  dual minimal projections, dual structure constants;
* :mod:`fusionforge.criteria` -- the Schur product criterion (decisive
  in the commutative case, a sampling falsifier otherwise);
* :mod:`fusionforge.bialgebra` -- the canonical fusion bialgebra, its
  Fourier transform, norms, entropies, uncertainty principles, Young
  inequalities, and the rank-2/3 parametrized families;
* :mod:`fusionforge.search` -- the classification engine for integral
  fusion rings and the rank-5 three-self-adjoint family;
* :mod:`fusionforge.corpus` -- the embedded fixture corpus and the
  FRT v1 interchange format.
"""

from . import bialgebra, corpus, criteria, rings, search, spectral
from .bialgebra import (
    CanonicalBialgebra,
    Element,
    Rank3Type1Params,
    canonical_from_fusion_data,
    inequality_suite,
    rank2_family,
    rank3_dual_schur,
    rank3_type1,
    rank3_type2,
)
from .corpus import load_fusion_ring, parse_fusion_ring, serialize_fusion_ring
from .criteria import obstruction_report, schur_commutative, schur_triple_sum
from .rings import (
    FusionData,
    TypeSignature,
    cyclic_group_ring,
    fp_dimensions,
    global_fpdim,
    new_fusion_data,
    type_signature,
    verify_axioms,
)
from .search import (
    SearchConstraints,
    classify,
    enumerate_fusion_rings,
    enumerate_involutions,
    enumerate_types,
    rank5_three_selfadjoint_family,
)
from .spectral import character_table, dual_fusion_coefficients, dual_projections

__version__ = "0.1.0"
