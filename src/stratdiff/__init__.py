"""Optimal strategic diffusion in weighted networks.

Exact, decomposition-based and treewidth-based solvers for the minimum
expected-time activation sequence, plus heuristics, adversarial instance
generators and Monte Carlo validation.
"""

from .network import (DiffusionInstance, InfluenceNetwork, NetworkFormatError,
                      SequenceError, SizeGuardError, SolveResult,
                      ZeroInfluenceError, activation_probability,
                      check_instance, expected_step_time, infeasible_result,
                      load, load_instance, save, save_instance, sequence_time,
                      validate, validate_instance)
from .exact import brute_force_optimal, dp_optimal
from .decompose import (ComponentInstance, biconnected_components,
                        component_instances, solve_full_via_decomposition)
from .treewidth import (TreeDecomposition, bag_ground, load_td,
                        min_fill_decomposition, save_td, tw_full_optimal,
                        tw_partial_optimal, validate_decomposition)
from .heuristics import greedy_sequence, majority_sequence, strategy_a_gk
from .generators import (SetCoverInstance, binarize_weights,
                         brute_force_set_cover, extract_cover, inapprox_scale,
                         make_gk, make_inapprox, make_np_hardness,
                         random_connected)
from .simulate import SimulationResult, simulate_sequence

__version__ = "0.1.0"

__all__ = [
    "DiffusionInstance", "InfluenceNetwork", "NetworkFormatError",
    "SequenceError", "SizeGuardError", "SolveResult", "ZeroInfluenceError",
    "activation_probability", "check_instance", "expected_step_time",
    "infeasible_result",
    "load", "load_instance", "save", "save_instance", "sequence_time",
    "validate", "validate_instance",
    "brute_force_optimal", "dp_optimal",
    "ComponentInstance", "biconnected_components", "component_instances",
    "solve_full_via_decomposition",
    "TreeDecomposition", "bag_ground", "load_td", "min_fill_decomposition",
    "save_td", "tw_full_optimal", "tw_partial_optimal",
    "validate_decomposition",
    "greedy_sequence", "majority_sequence", "strategy_a_gk",
    "SetCoverInstance", "binarize_weights", "brute_force_set_cover",
    "extract_cover", "inapprox_scale", "make_gk", "make_inapprox",
    "make_np_hardness", "random_connected",
    "SimulationResult", "simulate_sequence",
]
