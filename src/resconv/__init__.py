"""resconv: exact analysis of resource convertibility.

Preordered commutative monoids with concrete instances (count vectors,
probability vectors, spectra, reaction systems), an exact stochastic-map
engine with combs and channel simulation, structural property analyzers,
monotones and conversion-rate bounds.
"""

from .core import (Decision, FiniteTheoryTable, InputError, TheoryOracle,
                   Verdict, Violation, check_axioms, check_oracle_axioms,
                   equivalent, finite_table_from_oracle, replicate)
from .presentation import MorphismGenerator, MultisetTheory, ms_make
from .instances import (EntanglementSpectrumTheory, ProbVector,
                        RandomnessTheory, VectorTheory,
                        deterministic_convertible, entanglement_convertible,
                        enumerate_prob_vectors, majorizes,
                        reaction_convertible, shannon_entropy)
from .stoch import (UNIT, CompositionError, FinSet, SharedRandomness,
                    SimulationWitness, StochMap, all_deterministic_maps,
                    compose_par, compose_seq, discard, finset, from_function,
                    identity, is_deterministic, point_state, random_stoch_map,
                    search_exact_simulation, search_free_transformation,
                    search_free_transformation_batch, simulate_channel, state,
                    swap, tensor, tensor_all, trivial_randomness,
                    uniform_state)
from .combs import (NComb, OneComb, UCTransformation, apply_comb,
                    apply_comb_in_context, apply_ncomb, apply_uc,
                    comb_equivalent, comb_tensor, compose_combs_par,
                    compose_combs_seq, identity_comb, one_comb_as_ncomb,
                    plug_ncombs, symmetry_comb)
from .circuits import (CircuitDiagram, ParseError, evaluate_circuit,
                       normalize_to_comb, parse_circuit, render_circuit,
                       to_dot)
from .analysis import (PropertyReport, check_catalysis_free,
                       check_non_interacting, check_quality_like,
                       check_quantity_like, check_riesz_interpolation,
                       check_waste_free, cross_check_theorems, find_catalyst,
                       random_theory_table)
from .monotones import (Monotone, RateResult, builtin_monotone, classify,
                        complete_family, complete_family_violations,
                        component_monotone, entropy_monotone, find_activation,
                        minimal_rate, rate, rate_upper_bound, verify_monotone)
from .hasse import hasse_classes, hasse_dot

__version__ = "0.1.0"
