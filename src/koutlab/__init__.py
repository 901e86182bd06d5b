"""Inhomogeneous random K-out graphs.

Each node independently receives a type; a type-i node selects K_i
distinct other nodes uniformly at random, and an undirected edge joins
two nodes when either selected the other.  The package constructs such
graphs, measures largest-component statistics under optional uniform
node deletion, and evaluates exact finite-n and closed-form asymptotic
connectivity bounds against each other and against simulation.
"""

from .bounds import (AsymptoticBound, deleted_tail_bound, deleted_tail_bound_alt,
                     er_giant_fraction, heuristic_giant_lower_bound, mean_degree,
                     mean_selections, r_class_tail_bound, tail_bound)
from .component_analysis import (ComponentReport, CutRangeImplication,
                                 connected_components, connected_components_bfs,
                                 cut_range_implication, has_cut_in_range, is_cut)
from .errors import ParameterError
from .experiments import (CouplingReport, ExperimentConfig, TrialSummary,
                          collect_cmax, coupling_experiment, plausibility_floor,
                          resolve_workers, run_point, run_sweep, trial_stream)
from .graph_model import (DeletionSpec, GraphParams, KoutGraph,
                          assign_types, construct_r_type, couple_extend,
                          delete_random_nodes, two_type_params)
from .oracle import (BoundEvaluation, exact_cut_probability,
                     exact_cut_probability_deleted, exhaustive_event_probability,
                     union_bound_sum, union_bound_sum_deleted)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticBound", "BoundEvaluation", "ComponentReport", "CouplingReport",
    "CutRangeImplication", "DeletionSpec", "ExperimentConfig", "GraphParams",
    "KoutGraph", "ParameterError", "TrialSummary",
    "assign_types", "collect_cmax", "connected_components",
    "connected_components_bfs", "construct_r_type", "couple_extend",
    "coupling_experiment", "cut_range_implication", "delete_random_nodes",
    "deleted_tail_bound", "deleted_tail_bound_alt",
    "er_giant_fraction", "exact_cut_probability", "exact_cut_probability_deleted",
    "exhaustive_event_probability", "has_cut_in_range",
    "heuristic_giant_lower_bound", "is_cut", "mean_degree", "mean_selections",
    "plausibility_floor", "r_class_tail_bound", "resolve_workers", "run_point",
    "run_sweep", "tail_bound", "trial_stream", "two_type_params",
    "union_bound_sum", "union_bound_sum_deleted",
]
