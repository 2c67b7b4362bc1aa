"""Exact computations for Hibi rings with small class group: divisor class
groups, conic and maximal Cohen-Macaulay divisorial-ideal classes, and
splitting non-commutative crepant resolutions with replayable certificates.
"""

from .classgroup import (ClassGroupData, ConeError, SigmaMatrix, TorsionError,
                         class_group, class_of, parse_cone, same_class,
                         serialize_cone, sigma_matrix)
from .divisorial import (ConicPolytope, conic_classes, conic_facets,
                         conic_polytope, enumerate_conic, is_conic)
from .families import (GeneratedFamily, Rejection, TypeParams, classify,
                       expected_weight_table, generate_family, segre_poset)
from .mcm import (Chamber, ChamberDecomposition, CriterionHypothesisError,
                  McmTest, NonMcmCone, NotGorensteinError,
                  chamber_decomposition, is_mcm, mcm_region, non_mcm_cone,
                  semigroup_member)
from .nccr import (CertStep, CharacterSet, GldimCertificate, GldimResult,
                   NccrReport, certify_gldim, default_directions,
                   endomorphism_is_mcm, is_separated, koszul_terms,
                   nccr_characters, replay_certificate, verify_nccr)
from .posets import (BOTTOM, TOP, BoundedPoset, Circuit, PosetError,
                     PurityReport, TreeSelection, build_poset,
                     chordless_circuits, flip, is_pure, parse_poset,
                     polynomial_extension_edge, serialize_poset,
                     spanning_tree)
from .rank1 import (ExchangeGraph, McmBound, MutationResult, Rank1InputError,
                    Rank1Weights, Window, base_window, exchange_graph,
                    exchange_graph_dot, mcm_bound, mutate_window)

__version__ = "0.1.0"


def corpus_path(name: str):
    """Path to a bundled corpus file (poset and cone inputs)."""
    from importlib import resources  # brings zipfile, tempfile and pathlib

    return resources.files(__package__) / "corpus" / name
