"""Line-oriented circuit DSL and one-hole normalization.

Grammar (one layer per line, bottom-up; '#' starts a comment):

    types: A=2, B=3, Z=2
    library: lib = maps.json
    input: A, Z
    layer: f[lib] ; id[Z]
    layer: hole h(A -> B) ; id[Z]
    layer: g[lib]

Wire types are named finite alphabets with auto-named elements A0..An-1.
A layer is the parallel composition of its items, consuming the wire
list produced by the previous layer (the `input:` list for the first).
Library maps declare their own dom/cod wire lists and a free tag; see
the JSON format in the package README.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

from . import jsonio
from .combs import OneComb
from .core import MAX_ENTRIES, InputError
from .stoch import (TOO_MANY_SYMBOLS, UNIT, FinSet, StochMap, compose_par, compose_seq,
                    finset, identity, product_fits, swap, tensor, tensor_all)


class ParseError(InputError):
    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Box:
    """A fixed map in a layer: a library map, `id[T]` or `swap[T,U]`."""
    text: str
    dom_wires: tuple[str, ...]
    cod_wires: tuple[str, ...]
    map: StochMap
    free: bool


@dataclass(frozen=True)
class HoleItem:
    name: str
    dom_wires: tuple[str, ...]
    cod_wires: tuple[str, ...]

    @property
    def text(self) -> str:
        return f"hole {self.name}({','.join(self.dom_wires)} -> {','.join(self.cod_wires)})"


Item = Box | HoleItem


@dataclass(frozen=True)
class CircuitDiagram:
    types: tuple[tuple[str, int], ...]
    libraries: tuple[tuple[str, str], ...]  # (name, path as written)
    input_wires: tuple[str, ...]
    layers: tuple[tuple[Item, ...], ...]

    def finset_of(self, wire: str) -> FinSet:
        for name, size in self.types:
            if name == wire:
                return finset(name, size)
        raise InputError(f"undeclared wire type {wire!r}")

    def wires_finset(self, wires: Sequence[str]) -> FinSet:
        return tensor_all([self.finset_of(w) for w in wires])

    def hole_items(self) -> list[HoleItem]:
        return [it for layer in self.layers for it in layer if isinstance(it, HoleItem)]

    def output_wires(self) -> tuple[str, ...]:
        wires = self.input_wires
        for layer in self.layers:
            wires = sum((it.cod_wires for it in layer), ())
        return wires


_ITEM_ID = re.compile(r"id\[\s*(\w+)\s*\]$")
_ITEM_SWAP = re.compile(r"swap\[\s*(\w+\s*,\s*\w+)\s*\]$")
_ITEM_HOLE = re.compile(r"hole\s+(\w+)\(\s*([\w\s,]+?)\s*->\s*([\w\s,]+?)\s*\)$")
_ITEM_BOX = re.compile(r"(\w+)\[\s*(\w+)\s*\]$")


def parse_circuit(text: str, library_files: Mapping[str, Mapping] | None = None,
                  base_dir: str | Path = ".") -> CircuitDiagram:
    """Parse the DSL; library paths resolve through `library_files` first,
    then relative to `base_dir`.  Each layer is checked against the wires
    below it on the line that declares it."""
    finsets: dict[str, FinSet] = {}
    libraries: list[tuple[str, str]] = []
    lib_data: dict[str, object] = {}
    input_wires: tuple[str, ...] | None = None
    wires: tuple[str, ...] = ()
    layers: list[tuple[Item, ...]] = []
    hole_names: set[str] = set()

    def wire_list(raw: str, lineno: int, col: int) -> tuple[str, ...]:
        names = tuple(w.strip() for w in raw.split(",") if w.strip())
        for w in names:
            if w not in finsets:
                raise ParseError(f"undeclared wire type {w!r}", lineno, col)
        if not product_fits(names, finsets):
            raise ParseError(f"wire list {names} {TOO_MANY_SYMBOLS}", lineno, col)
        return names

    def item(piece: str, lineno: int, col: int) -> Item:
        m = _ITEM_ID.fullmatch(piece)
        if m:
            (w,) = wire_list(m.group(1), lineno, col)
            return Box(f"id[{w}]", (w,), (w,), identity(finsets[w]), True)
        m = _ITEM_SWAP.fullmatch(piece)
        if m:
            w, v = wire_list(m.group(1), lineno, col)
            return Box(f"swap[{w},{v}]", (w, v), (v, w), swap(finsets[w], finsets[v]), True)
        m = _ITEM_HOLE.fullmatch(piece)
        if m:
            name = m.group(1)
            if name in hole_names:
                raise ParseError(f"duplicate hole name {name!r}", lineno, col)
            hole_names.add(name)
            return HoleItem(name, wire_list(m.group(2), lineno, col),
                            wire_list(m.group(3), lineno, col))
        m = _ITEM_BOX.fullmatch(piece)
        if not m:
            raise ParseError(f"cannot parse item {piece!r}", lineno, col)
        # Built where it is referenced: a library may declare maps over types
        # the circuit does not use.
        name, lib = m.groups()
        if lib not in lib_data:
            raise ParseError(f"unknown library {lib!r}", lineno, col)
        try:
            dom_w, cod_w, f, free = jsonio.load_library_map(lib_data[lib], lib, name, finsets)
        except InputError as exc:
            raise ParseError(str(exc), lineno, col) from None
        return Box(f"{name}[{lib}]", dom_w, cod_w, f, free)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("types:"):
            for part in stripped[len("types:"):].split(","):
                part = part.strip()
                if not part:
                    continue
                m = re.fullmatch(r"(\w+)\s*=\s*(\d+)", part)
                if not m:
                    raise ParseError(f"bad type declaration {part!r}", lineno, indent)
                name, size = m.group(1), int(m.group(2))
                if name in finsets:
                    raise ParseError(f"duplicate type {name!r}", lineno, indent)
                if size < 1:
                    raise ParseError(f"type {name!r} must have size >= 1", lineno, indent)
                if size * size > MAX_ENTRIES:
                    raise ParseError(f"type {name!r} {TOO_MANY_SYMBOLS}", lineno, indent)
                finsets[name] = finset(name, size)
        elif stripped.startswith("library:"):
            m = re.fullmatch(r"library:\s*(\w+)\s*=\s*(\S+)", stripped)
            if not m:
                raise ParseError("expected 'library: name = path'", lineno, indent)
            name, path = m.group(1), m.group(2)
            if name in lib_data:
                raise ParseError(f"duplicate library {name!r}", lineno, indent)
            if library_files is not None and path in library_files:
                data = library_files[path]
            else:
                full = Path(base_dir) / path
                try:
                    lib_text = jsonio.read_file(full)
                except InputError:  # no such file
                    raise ParseError(f"library file {path!r} not found", lineno, indent) from None
                try:
                    data = jsonio.decode_json(lib_text, f"invalid JSON in {full}")
                except InputError as exc:
                    raise ParseError(str(exc), lineno, indent) from None
            libraries.append((name, path))
            lib_data[name] = data
        elif stripped.startswith("input:"):
            if input_wires is not None:
                raise ParseError("duplicate input declaration", lineno, indent)
            input_wires = wires = wire_list(stripped[len("input:"):], lineno, indent)
        elif stripped.startswith("layer:"):
            if input_wires is None:
                raise ParseError("input must be declared before layers", lineno, indent)
            items: list[Item] = []
            col = indent + len("layer:")
            for chunk in stripped[len("layer:"):].split(";"):
                piece = chunk.strip()
                if not piece:
                    raise ParseError("empty layer item", lineno, col)
                items.append(item(piece, lineno, col))
                col += len(chunk) + 1
            needed = sum((it.dom_wires for it in items), ())
            if needed != wires:
                bad = next((i for i, (x, y) in enumerate(zip(needed, wires)) if x != y),
                           min(len(needed), len(wires)))
                raise ParseError(
                    f"layer {len(layers) + 1} consumes wires {needed} but receives {wires}; "
                    f"first mismatch at wire {bad}", lineno, indent)
            layers.append(tuple(items))
            wires = sum((it.cod_wires for it in items), ())
            if not product_fits(wires, finsets):
                raise ParseError(f"wire list {wires} of layer {len(layers)} {TOO_MANY_SYMBOLS}",
                                 lineno, indent)
        else:
            raise ParseError(f"unrecognized line {stripped!r}", lineno, indent)

    if input_wires is None:
        raise ParseError("missing input declaration", max(1, len(text.splitlines())))
    return CircuitDiagram(tuple((name, len(f)) for name, f in finsets.items()),
                          tuple(libraries), input_wires, tuple(layers))


def _hole_map(c: CircuitDiagram, hole: HoleItem,
              hole_maps: Mapping[str, StochMap]) -> StochMap:
    """The process supplied for a hole, checked against the hole's type."""
    if hole.name not in hole_maps:
        raise InputError(f"no process supplied for hole {hole.name!r}")
    f = hole_maps[hole.name]
    if f.dom != c.wires_finset(hole.dom_wires) or f.cod != c.wires_finset(hole.cod_wires):
        raise InputError(f"process for hole {hole.name!r} has the wrong type")
    return f


def _layer_map(c: CircuitDiagram, items: Sequence[Item],
               hole_maps: Mapping[str, StochMap]) -> StochMap:
    """Parallel composite of the items' maps; the unit map when there are none."""
    maps = [it.map if isinstance(it, Box) else _hole_map(c, it, hole_maps) for it in items]
    return reduce(compose_par, maps) if maps else identity(UNIT)


def _apply_layers(c: CircuitDiagram, layers: Sequence[Sequence[Item]],
                  wires: Sequence[str], hole_maps: Mapping[str, StochMap]) -> StochMap:
    """The layers composed bottom-up from the first layer's map; the
    identity on the given wires when there are no layers."""
    if not layers:
        return identity(c.wires_finset(wires))
    acc = _layer_map(c, layers[0], hole_maps)
    for layer in layers[1:]:
        acc = compose_seq(_layer_map(c, layer, hole_maps), acc)
    return acc


def evaluate_circuit(c: CircuitDiagram, hole_maps: Mapping[str, StochMap] | None = None) -> StochMap:
    """Direct bottom-up evaluation with the given processes in the holes."""
    return _apply_layers(c, c.layers, c.input_wires, hole_maps or {})


def normalize_to_comb(c: CircuitDiagram) -> OneComb:
    """Rewrite a one-hole circuit as a comb with the same behavior.

    Layers below the hole fold into the pre map and layers above into the
    post map; the hole's layer-mates are absorbed below, and symmetries
    route their wires to the right of the hole, becoming the ancilla.
    """
    holes = c.hole_items()
    if len(holes) != 1:
        raise InputError(f"normalization needs exactly one hole, found {len(holes)}")
    for layer in c.layers:
        for it in layer:
            if isinstance(it, Box) and not it.free:
                raise InputError(f"non-free map {it.text!r} cannot appear in a comb")

    k_layer, k_pos = next((i, j) for i, layer in enumerate(c.layers)
                          for j, it in enumerate(layer) if isinstance(it, HoleItem))
    hole_layer = c.layers[k_layer]
    hole = hole_layer[k_pos]
    hole_dom = c.wires_finset(hole.dom_wires)
    hole_cod = c.wires_finset(hole.cod_wires)

    below = _apply_layers(c, c.layers[:k_layer], c.input_wires, {})
    u_left = _layer_map(c, hole_layer[:k_pos], {})
    u_right = _layer_map(c, hole_layer[k_pos + 1:], {})
    left_cod, right_cod = u_left.cod, u_right.cod

    pre = compose_seq(compose_par(compose_par(u_left, identity(hole_dom)), u_right), below)
    pre = compose_seq(swap(left_cod, hole_dom), pre, right=right_cod)

    above = _apply_layers(c, c.layers[k_layer + 1:],
                          sum((it.cod_wires for it in hole_layer), ()), {})
    post = compose_seq(above, compose_par(swap(hole_cod, left_cod), identity(right_cod)))

    return OneComb(tensor(left_cod, right_cod), pre, post, hole_dom, hole_cod)


def render_circuit(c: CircuitDiagram) -> str:
    """Emit the same syntax parse_circuit accepts; parsing the output with
    the same libraries reproduces the diagram."""
    lines = ["types: " + ", ".join(f"{n}={s}" for n, s in c.types)]
    for name, path in c.libraries:
        lines.append(f"library: {name} = {path}")
    lines.append("input: " + ", ".join(c.input_wires))
    for layer in c.layers:
        lines.append("layer: " + " ; ".join(it.text for it in layer))
    return "\n".join(lines) + "\n"


def to_dot(c: CircuitDiagram) -> str:
    """DOT digraph of the layered DAG, wires as edges between layer nodes."""
    lines = ["digraph circuit {", "  rankdir=BT;"]
    prev = [f"in{i}" for i in range(len(c.input_wires))]
    for i, w in enumerate(c.input_wires):
        lines.append(f'  in{i} [label="{w}" shape=plaintext];')
    for li, layer in enumerate(c.layers):
        pos = 0
        new_prev: list[str] = []
        for ii, it in enumerate(layer):
            node = f"l{li}i{ii}"
            label = it.text.replace('"', "'")
            shape = "box" if not isinstance(it, HoleItem) else "doubleoctagon"
            lines.append(f'  {node} [label="{label}" shape={shape}];')
            for k in range(len(it.dom_wires)):
                lines.append(f"  {prev[pos + k]} -> {node};")
            pos += len(it.dom_wires)
            new_prev.extend([node] * len(it.cod_wires))
        prev = new_prev
    for i, w in enumerate(c.output_wires()):
        lines.append(f'  out{i} [label="{w}" shape=plaintext];')
        lines.append(f"  {prev[i]} -> out{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
