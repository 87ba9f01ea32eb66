"""Input guards across the package raise one named error with a message
that says what is wrong.  Each row below is a guard that no other test
reaches."""

from fractions import Fraction
from random import Random

import pytest

from resconv.analysis import random_theory_table
from resconv.circuits import CircuitDiagram, ParseError, parse_circuit
from resconv.combs import apply_comb_in_context, identity_comb
from resconv.core import MAX_ENTRIES, InputError, order_matrix, replicate
from resconv.instances import ProbVector, VectorTheory, deterministic_convertible
from resconv.monotones import Monotone, rate, rate_upper_bound
from resconv.jsonio import load_ncomb
from resconv.presentation import ms_make
from resconv.stoch import (UNIT, CompositionError, SharedRandomness, StochMap, finset,
                           from_function, identity, search_free_transformation_batch, state,
                           tensor)

A2, B2, C2 = finset("a", 2), finset("b", 2), finset("c", 2)
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
    (lambda: ProbVector((0.5, 0.5)), InputError, "probability 0.5 is not an int or a Fraction"),
    (lambda: ProbVector((True,)), InputError, "probability True is not an int or a Fraction"),
    (lambda: ProbVector.of(0.5, 0.5), InputError, "probability 0.5 is not an int or a Fraction"),
    (lambda: ProbVector.of(True), InputError, "probability True is not an int or a Fraction"),
    (lambda: StochMap(UNIT, B2, [[0.5], [0.5]]), InputError,
     "probability 0.5 is not an int or a Fraction"),
    (lambda: StochMap(UNIT, B2, [["1/2"], ["1/2"]]), InputError,
     "probability '1/2' is not an int or a Fraction"),
    (lambda: StochMap(UNIT, B2, [[True], [False]]), InputError,
     "probability True is not an int or a Fraction"),
    (lambda: state(B2, [0.5, 0.5]), InputError, "probability 0.5 is not an int or a Fraction"),
    (lambda: SharedRandomness(UNIT, UNIT, ((1.0,),)), InputError,
     "probability 1.0 is not an int or a Fraction"),
    (lambda: SharedRandomness(UNIT, UNIT, ((True,),)), InputError,
     "probability True is not an int or a Fraction"),
    (lambda: SharedRandomness(UNIT, UNIT, (("1",),)), InputError,
     "probability '1' is not an int or a Fraction"),
    (lambda: ProbVector.uniform(0), InputError, "probability vector must be non-empty"),
    (lambda: VectorTheory(MAX_ENTRIES + 1, "additive").enumerate_up_to(0), InputError,
     "box 0: 1^1000001 vectors of 1000001 entries exceed the limit of 1000000 entries"),
    (lambda: VectorTheory(17, "supremal").enumerate_up_to(1), InputError,
     "box 1: 2^17 vectors of 17 entries exceed the limit of 1000000 entries"),
    # refused before the theory is asked: None is no term of FOOD
    (lambda: order_matrix(FOOD, [None] * 1001), InputError,
     f"1001 terms need 1002001 order entries, beyond the limit of {MAX_ENTRIES} entries"),
    (lambda: replicate(FOOD, -1, (1, 1)), InputError,
     "replicate count must be non-negative, got -1"),
    (lambda: rate_upper_bound(Monotone("first", lambda a: Fraction(a[0])), (1, 0), (1, 0)),
     InputError, "rate bound needs an additive monotone, got 'general'"),
    (lambda: ms_make({"A": -1}), InputError, "negative multiplicity for 'A'"),
    (lambda: CircuitDiagram((("A", 2),), (), ("A",), ()).finset_of("Q"), InputError,
     "undeclared wire type 'Q'"),
    (lambda: apply_comb_in_context(identity_comb(A2, B2), identity(A2), C2, C2), CompositionError,
     "context process input a{a0,a1} does not match"),
    (lambda: apply_comb_in_context(identity_comb(A2, B2), identity(tensor(A2, C2)), C2, C2),
     CompositionError, "context process output a*c{a0|c0,a0|c1,a1|c0,a1|c1} does not match"),
    (lambda: ProbVector.uniform(1000).tensor(ProbVector.uniform(1001)), InputError,
     "the product of distributions of 1000 and 1001 entries has 1001000 entries, beyond the "
     "limit of 1000000 entries"),
    (lambda: rate(FOOD, (1, 0), (0, 1), 1001), InputError,
     "caps 1001: the scan asks 1002001 questions, beyond the limit of 1000000 entries"),
    (lambda: random_theory_table(Random(0), 32), InputError,
     "random table size 32: 1048576 compatibility entries (size^4), beyond the limit of "
     "1000000 entries"),
], ids=["closure-target-not-state", "closure-start-not-state", "function-table-range",
        "deterministic-not-prob-vectors", "prob-vector-float-entry", "prob-vector-bool-entry",
        "prob-vector-of-float", "prob-vector-of-bool", "stoch-map-float-entry",
        "stoch-map-str-entry", "stoch-map-bool-entry", "state-float-entry",
        "joint-float-entry", "joint-bool-entry", "joint-str-entry",
        "prob-vector-uniform-empty", "vector-enumeration-arity", "vector-enumeration-box",
        "order-table-size", "replicate-negative", "rate-bound-not-additive",
        "multiset-negative", "circuit-undeclared-wire", "context-input", "context-output",
        "tensor-product-size", "rate-scan-size", "random-table-size"])
def test_guard_errors_name_the_fault(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_bad_comb_files_and_circuit_texts_raise_input_errors():
    # A type mismatch read from a file and a circuit parse error are bad
    # input like any other: callers catch both as `InputError`.
    wrong_stage = {"holes": [{"dom": ["a0", "a1"], "cod": ["b0", "b1"]}], "order": [0],
                   "stages": [{"dom": ["x0"], "cod": ["b0", "b1"], "matrix": [["1"], ["0"]]},
                              {"dom": ["b0", "b1"], "cod": ["y0"], "matrix": [["1", "1"]]}],
                   "ancillas": [["*"]]}
    with pytest.raises(InputError) as exc:
        load_ncomb(wrong_stage)
    assert isinstance(exc.value, CompositionError)
    assert str(exc.value) == "stage 0 must produce A{a0,a1}, got cod{b0,b1}"
    with pytest.raises(InputError) as exc:
        parse_circuit("types: A=2\nbogus\n")
    assert isinstance(exc.value, ParseError) and (exc.value.line, exc.value.col) == (2, 1)
    assert str(exc.value) == "line 2, col 1: unrecognized line 'bogus'"


def test_int_entries_stay_exact():
    assert ProbVector.of(0, 1) == ProbVector((Fraction(0), Fraction(1)))
    assert state(B2, [1, 0]) == StochMap(UNIT, B2, [[Fraction(1)], [Fraction(0)]])
    assert SharedRandomness(UNIT, UNIT, ((1,),)).joint == ((1,),)
