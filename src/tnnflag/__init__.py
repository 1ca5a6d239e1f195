"""
Exact arithmetic for the totally nonnegative complete flag variety and its
tropicalization: cell parameterizations, Pluecker coordinates, extremal
indices, inverse maps, and certificate-producing membership tests.
"""

__version__ = "0.1.0"

from .perms import (
    Perm, Word, Subexpression,
    identity, inverse, length, left_mult_s, right_mult_s,
    perm_from_word, longest_element, perm_from_str, perm_to_str, all_perms,
    gale_leq, bruhat_leq,
    canonical_w0_word, positive_distinguished_subexpression,
)
from .algebra import (
    Trop, TROP_INF, LaurentMonomial,
    rat_from_str, rat_to_str, trop_from_str, trop_to_str,
)
from .wiring import (
    WiringDiagram, VerticalEdge, NegativeSegment, Path, PathCollection,
    build_diagram, collection_weight, graph_extremal_collections,
    path_sum_matrix,
)
from .plucker import (
    Index, PlueckerVector, TropPlueckerVector, IncidenceRelation,
    index_to_str, index_from_str, all_proper_indices,
    phi, trop_phi,
    generate_relations, check_relation, trop_check_relation,
    trop_terms_verdict,
)
from .extremal import (
    SupportVector, ExtremalChain, is_supported, xi,
    cell_support, extremal_indices, extremal_index_set, s_vw,
)
from .membership import (
    CellCertificate, identify_cell, psi_monomials, psi, trop_psi,
    decide_tnn, decide_trop,
    propagate_three_term, trop_propagate_three_term,
)
