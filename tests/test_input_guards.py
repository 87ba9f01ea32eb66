"""Input guards across the package raise one named error with a message
that says what is wrong.  Each row below is a guard that no other test
reaches."""

from fractions import Fraction

import pytest

from resconv.circuits import CircuitDiagram
from resconv.core import InputError, replicate
from resconv.instances import ProbVector, VectorTheory, deterministic_convertible
from resconv.monotones import Monotone, rate_upper_bound
from resconv.presentation import ms_make
from resconv.stoch import finset, from_function, identity, search_free_transformation_batch, state

A2, B2 = finset("a", 2), finset("b", 2)
COIN = state(A2, [Fraction(1, 2), Fraction(1, 2)])
FOOD = VectorTheory(2, "additive")


@pytest.mark.parametrize("build, error, message", [
    (lambda: search_free_transformation_batch(COIN, [identity(A2)], [], 1), InputError,
     "targets must be states"),
    (lambda: search_free_transformation_batch(identity(A2), [COIN], [], 1), InputError,
     "search starts from a state (singleton-domain map)"),
    (lambda: from_function(A2, B2, [0, 2]), InputError,
     "function table does not match the domain/codomain"),
    (lambda: deterministic_convertible((Fraction(1),), ProbVector.of(1)), InputError,
     "both arguments must be probability vectors"),
    (lambda: replicate(FOOD, -1, (1, 1)), InputError,
     "replicate count must be non-negative, got -1"),
    (lambda: rate_upper_bound(Monotone("first", lambda a: Fraction(a[0])), (1, 0), (1, 0)),
     InputError, "rate bound needs an additive monotone, got 'general'"),
    (lambda: ms_make({"A": -1}), InputError, "negative multiplicity for 'A'"),
    (lambda: CircuitDiagram((("A", 2),), (), ("A",), ()).finset_of("Q"), InputError,
     "undeclared wire type 'Q'"),
], ids=["closure-target-not-state", "closure-start-not-state", "function-table-range",
        "deterministic-not-prob-vectors", "replicate-negative", "rate-bound-not-additive",
        "multiset-negative", "circuit-undeclared-wire"])
def test_guard_errors_name_the_fault(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
