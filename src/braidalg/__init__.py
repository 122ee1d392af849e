"""Exact-arithmetic workbench for braid and welded-braid algebras over Q."""

from .perms import Permutation, perm_compose, perm_from_transposition_word, perm_inverse
from .series import (
    Alphabet,
    AlphabetMismatch,
    CapMismatch,
    ConstantTermError,
    SeriesError,
    TruncatedSeries,
    generator,
    is_lie_element,
    lie_components,
    one,
    parse_series,
    substitute,
    substitute_generators,
    zero,
)
from .quotient import (
    BasisError,
    GradedQuotientBasis,
    RelationPreset,
    build_graded_basis,
    free_preset,
    hilbert_row,
    infinitesimal_artin,
    oriented_artin,
    oriented_upper_triangular,
    preset_by_name,
)
from .sdseries import ContextMismatch, SemidirectSeries
from .words import (
    FreeGroupEndo,
    GroupRingElement,
    Token,
    WeldedWord,
    WordError,
    as_automorphism,
    braid_relations,
    equivariance_relations,
    mccool_relations,
    parse_word,
    pure_braid_generator,
    words_equal_in_bp,
)
from .reps import (
    FamilyReport,
    central_element,
    check_family_axioms,
    eval_drinfeld,
    eval_rho3,
    eval_welded,
    rho3_delta,
)
from .associator import (
    AB,
    AssociatorError,
    AxiomResult,
    ExtensionStep,
    bootstrap_semi_associator,
    check_axiom,
    check_equivalences,
    check_yang_baxter,
    extend_semi_associator,
    is_semi_associator,
    swap_letters,
)
from .invariants import (
    DeltaKernelReport,
    DistinguishReport,
    FiltrationReport,
    HilbertTable,
    check_splitting_identity,
    delta_kernel,
    delta_map,
    distinguish,
    eval_group_ring,
    hilbert_table,
    random_welded_word,
    vassiliev_degree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
