"""Saturating sets in finite projective planes.

Constructions (greedy, randomized sampling with completion, subfield
triangle), verification against the defining property, size bounds, and
the covering-hypergraph view of the completion problem.
"""

from .gf import GaloisField, factor_prime_power, field_for_order, subfield_elements
from .plane import (PlaneAxiomError, ProjectivePlane, build_pg2, canonical_plane,
                    load_plane, load_point_set, save_plane, save_point_set, validate_axioms)
from .formulas import (contraction_product, default_step_cap,
                       expected_unsaturated, expected_unsaturated_main_term,
                       lunelli_sce_bound, sampling_probability, theorem_bound)
from .saturation import (RandomTrialStats, SaturationState, StepRecord,
                         VerificationError, complete, greedy_construct,
                         is_saturating, minsat_bruteforce, monte_carlo_expectation,
                         random_construct, unsaturated)
from .baer import BaerEmbedding, baer_subplane, three_subline_construction
from .hypergraph import (SetFamily, TransversalResult,
                         check_uniform_intersecting, greedy_transversal,
                         pairwise_intersection_sizes, saturation_family,
                         transversal_bound)

__version__ = "0.1.0"
