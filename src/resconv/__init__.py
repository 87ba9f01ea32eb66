"""resconv: exact analysis of resource convertibility.

Preordered commutative monoids with concrete instances (count vectors,
probability vectors, spectra, reaction systems), an exact stochastic-map
engine with combs and channel simulation, structural property analyzers,
monotones and conversion-rate bounds.

The top level re-exports only the names of the README's library example;
everything else is imported from its module (`resconv.core`,
`resconv.stoch`, `resconv.combs`, ...).
"""

from .analysis import find_catalyst
from .instances import ProbVector, VectorTheory, entanglement_convertible
from .monotones import component_monotone, rate

__version__ = "0.1.0"
