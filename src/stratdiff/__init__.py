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
                      validate_instance)
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


def _gk_k_of(inst) -> int:
    k = int(inst.network.node_count ** 0.5)  # k^2 <= k^2 + k < (k + 1)^2
    if k * k + k != inst.network.node_count:
        raise ValueError("instance size does not match any G(k)")
    return k


# name -> (run(instance, td or None, force), traits); run looks its solver up
# when called.  Traits: "exact", "full" (z = n only), "gk" (G(k) only), "td".
SOLVERS = {
    "brute": (lambda inst, td, force: brute_force_optimal(inst, force=force),
              frozenset({"exact"})),
    "dp": (lambda inst, td, force: dp_optimal(inst, force=force), frozenset({"exact"})),
    "greedy": (lambda inst, td, force: greedy_sequence(inst), frozenset()),
    "majority": (lambda inst, td, force: majority_sequence(inst), frozenset()),
    "strategy-a": (lambda inst, td, force: strategy_a_gk(_gk_k_of(inst), inst),
                   frozenset({"gk"})),
    "tw-full": (lambda inst, td, force: tw_full_optimal(inst, td, force=force),
                frozenset({"exact", "full", "td"})),
    "tw-partial": (lambda inst, td, force: tw_partial_optimal(inst, td, force=force),
                   frozenset({"exact", "td"})),
    "decompose": (lambda inst, td, force: solve_full_via_decomposition(
        inst, lambda sub: dp_optimal(sub, force=force)), frozenset({"exact", "full"})),
}

__all__ = [
    "DiffusionInstance", "InfluenceNetwork", "NetworkFormatError",
    "SequenceError", "SizeGuardError", "SolveResult", "ZeroInfluenceError",
    "activation_probability", "check_instance", "expected_step_time",
    "infeasible_result",
    "load", "load_instance", "save", "save_instance", "sequence_time",
    "validate_instance",
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
    "SimulationResult", "simulate_sequence", "SOLVERS",
]
