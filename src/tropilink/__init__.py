"""Certified linkage of p-regular multigraphs and tropical moduli strata."""

from .graphs import (Graph, WeightedGraph, GraphError,
                     InternalConsistencyError, build_graph, contract, genus,
                     theta_graph, dumbbell_graph, k4_graph, cycle_graph,
                     petersen_graph, to_json_dict, from_json_dict, to_dot)
from .canonical import are_isomorphic, canonical_form, isomorphism_witness
from .connectivity import Cycle, edge_connectivity_capped, longest_cycle
from .normal_form import (NormalizedForm, amplitude, build_polygon, epsilon,
                          normalize)
from .hamiltonize import (hamiltonize, lengthen_cycle_step, remove_loop_step,
                          valency_reducing_extension)
from .certificates import (LinkageCertificate, StrongLinkStep, strong_link_check,
                           verify_certificate)
from .linkage import link, reduce_to_polygon
from .atlas import enumerate_p_regular, enumerate_stable, move_graph
from .moduli import (StrataPoset, Stratum, build_poset, check_schottky_codim1,
                     connected_through_codim_one)

__version__ = "0.1.0"
