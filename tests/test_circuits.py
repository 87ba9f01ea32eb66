from fractions import Fraction
from random import Random

import pytest

from resconv.circuits import (ParseError, evaluate_circuit, normalize_to_comb,
                              parse_circuit, render_circuit, to_dot)
from resconv.combs import apply_comb
from resconv.stoch import all_deterministic_maps, finset, identity, random_stoch_map

F = Fraction


def lib_json(rng=None, free_g=True):
    rng = rng or Random(42)
    # f: A -> A*Z, g: B*Z -> B, m: A -> B over types A=2, B=2, Z=2
    from resconv.stoch import finset, tensor
    from resconv.jsonio import dump_stoch_map
    A, B, Z = finset("A", 2), finset("B", 2), finset("Z", 2)
    f = random_stoch_map(rng, A, tensor(A, Z))
    g = random_stoch_map(rng, tensor(B, Z), B)
    m = random_stoch_map(rng, A, B)
    return {"maps": {
        "f": {"dom": ["A"], "cod": ["A", "Z"],
              "matrix": dump_stoch_map(f)["matrix"], "free": True},
        "g": {"dom": ["B", "Z"], "cod": ["B"],
              "matrix": dump_stoch_map(g)["matrix"], "free": free_g},
        "m": {"dom": ["A"], "cod": ["B"],
              "matrix": dump_stoch_map(m)["matrix"], "free": True},
    }}


SANDWICH = """\
# one hole between two library maps, ancilla wire on the right
types: A=2, B=2, Z=2
library: lib = maps.json
input: A
layer: f[lib]
layer: hole h(A -> B) ; id[Z]
layer: g[lib]
"""


def parse_sandwich(free_g=True):
    return parse_circuit(SANDWICH, library_files={"maps.json": lib_json(free_g=free_g)})


def test_identity_circuit_parses_and_evaluates():
    text = "types: T=2\ninput: T\nlayer: id[T]\n"
    c = parse_circuit(text)
    assert evaluate_circuit(c).matrix == identity(finset("T", 2)).matrix


def test_three_layer_circuit_records_the_hole():
    c = parse_sandwich()
    holes = c.hole_items()
    assert len(holes) == 1
    assert holes[0].name == "h"
    assert holes[0].dom_wires == ("A",) and holes[0].cod_wires == ("B",)


def test_round_trip_through_renderer():
    c = parse_sandwich()
    again = parse_circuit(render_circuit(c), library_files={"maps.json": lib_json()})
    assert again == c


def test_ill_typed_junction_names_the_wire():
    text = "types: A=2, B=3\ninput: A\nlayer: id[A]\nlayer: id[B]\n"
    with pytest.raises(ParseError) as exc:
        parse_circuit(text)
    msg = str(exc.value)
    assert "('B',)" in msg and "('A',)" in msg


def test_duplicate_hole_name_rejected():
    text = ("types: A=2\ninput: A, A\n"
            "layer: hole h(A -> A) ; hole h(A -> A)\n")
    with pytest.raises(ParseError) as exc:
        parse_circuit(text)
    assert "duplicate hole" in str(exc.value)


def test_unknown_library_map_rejected():
    text = ("types: A=2\nlibrary: lib = maps.json\ninput: A\n"
            "layer: nope[lib]\n")
    with pytest.raises(ParseError) as exc:
        parse_circuit(text, library_files={"maps.json": lib_json()})
    assert "unknown library map" in str(exc.value)


def test_parse_error_carries_line_and_column():
    text = "types: A=2\ninput: A\nlayer: ???\n"
    with pytest.raises(ParseError) as exc:
        parse_circuit(text)
    assert exc.value.line == 3


# normalization

def all_hole_processes(comb, extra_random=5, seed=99):
    rng = Random(seed)
    fs = all_deterministic_maps(comb.hole_dom, comb.hole_cod)
    fs += [random_stoch_map(rng, comb.hole_dom, comb.hole_cod)
           for _ in range(extra_random)]
    return fs


def assert_normal_form_sound(circuit):
    comb = normalize_to_comb(circuit)
    hole = circuit.hole_items()[0]
    for f in all_hole_processes(comb):
        assert apply_comb(comb, f).matrix == \
            evaluate_circuit(circuit, {hole.name: f}).matrix
    return comb


def test_already_comb_shaped_circuit_is_a_fixed_point():
    c = parse_sandwich()
    comb = assert_normal_form_sound(c)
    # the ancilla is exactly the side wire type
    assert len(comb.ancilla) == 2


def test_hole_with_parallel_identity_wire():
    text = """\
types: A=2, B=2, Z=2
library: lib = maps.json
input: A
layer: f[lib]
layer: hole h(A -> B) ; id[Z]
layer: id[B] ; id[Z]
layer: g[lib]
"""
    c = parse_circuit(text, library_files={"maps.json": lib_json()})
    comb = assert_normal_form_sound(c)
    assert comb.ancilla.elements == finset("Z", 2).elements


def test_post_only_circuit_gives_identity_pre():
    text = """\
types: A=2, B=2
library: lib = maps.json
input: A
layer: hole h(A -> A)
layer: m[lib]
"""
    lib = lib_json()
    lib["maps"]["m"]["dom"] = ["A"]
    c = parse_circuit(text, library_files={"maps.json": lib})
    comb = assert_normal_form_sound(c)
    assert comb.pre.matrix == identity(finset("A", 2)).matrix


def test_hole_with_left_and_right_siblings_routes_wires():
    text = """\
types: A=2, B=2, Z=2
library: lib = maps.json
input: A, A, Z
layer: m[lib] ; hole h(A -> B) ; id[Z]
layer: id[B] ; g[lib]
layer: swap[B,B]
"""
    c = parse_circuit(text, library_files={"maps.json": lib_json()})
    assert_normal_form_sound(c)


def test_swap_layers_normalize_correctly():
    text = """\
types: A=2, B=2
input: A, B
layer: swap[A,B]
layer: id[B] ; hole h(A -> A)
layer: swap[B,A]
"""
    c = parse_circuit(text)
    assert_normal_form_sound(c)


def test_multi_wire_hole():
    text = """\
types: A=2, B=2, Z=2
library: lib = maps.json
input: A
layer: f[lib]
layer: hole h(A, Z -> B)
"""
    c = parse_circuit(text, library_files={"maps.json": lib_json()})
    comb = assert_normal_form_sound(c)
    assert len(comb.hole_dom) == 4


def test_two_holes_cannot_normalize():
    from resconv.core import InputError
    text = ("types: A=2\ninput: A, A\n"
            "layer: hole h1(A -> A) ; hole h2(A -> A)\n")
    c = parse_circuit(text)
    with pytest.raises(InputError):
        normalize_to_comb(c)


def test_non_free_map_cannot_normalize():
    from resconv.core import InputError
    c = parse_sandwich(free_g=False)
    with pytest.raises(InputError) as exc:
        normalize_to_comb(c)
    assert "non-free" in str(exc.value)


def test_dot_export_mentions_every_item():
    c = parse_sandwich()
    dot = to_dot(c)
    assert dot.startswith("digraph circuit {")
    for token in ("f[lib]", "g[lib]", "hole h"):
        assert token in dot
