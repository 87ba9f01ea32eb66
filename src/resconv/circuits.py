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

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .combs import OneComb
from .core import InputError
from .stoch import (UNIT, FinSet, StochMap, compose_par, compose_seq, finset,
                    identity, swap, tensor, tensor_all)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class LibraryMap:
    name: str
    lib: str
    dom_wires: tuple[str, ...]
    cod_wires: tuple[str, ...]
    map: StochMap
    free: bool


@dataclass(frozen=True)
class BoxItem:
    name: str
    lib: str
    entry: LibraryMap

    @property
    def dom_wires(self) -> tuple[str, ...]:
        return self.entry.dom_wires

    @property
    def cod_wires(self) -> tuple[str, ...]:
        return self.entry.cod_wires

    def text(self) -> str:
        return f"{self.name}[{self.lib}]"


@dataclass(frozen=True)
class IdItem:
    wire: str

    @property
    def dom_wires(self) -> tuple[str, ...]:
        return (self.wire,)

    cod_wires = dom_wires

    def text(self) -> str:
        return f"id[{self.wire}]"


@dataclass(frozen=True)
class SwapItem:
    first: str
    second: str

    @property
    def dom_wires(self) -> tuple[str, ...]:
        return (self.first, self.second)

    @property
    def cod_wires(self) -> tuple[str, ...]:
        return (self.second, self.first)

    def text(self) -> str:
        return f"swap[{self.first},{self.second}]"


@dataclass(frozen=True)
class HoleItem:
    name: str
    dom_wires: tuple[str, ...]
    cod_wires: tuple[str, ...]

    def text(self) -> str:
        return f"hole {self.name}({','.join(self.dom_wires)} -> {','.join(self.cod_wires)})"


Item = BoxItem | IdItem | SwapItem | HoleItem


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


def load_library_map(libname: str, data: Mapping, name: str,
                     types: Mapping[str, FinSet]) -> LibraryMap:
    """Build one typed map of a library file against declared wire types.

    Maps are built lazily, on first reference: a library may declare maps
    over types the referencing circuit does not use.
    """
    from fractions import Fraction
    maps = data.get("maps", data)
    if name not in maps:
        raise InputError(f"unknown library map {name!r} in {libname!r}")
    spec = maps[name]
    dom_w = tuple(spec["dom"])
    cod_w = tuple(spec["cod"])
    for w in dom_w + cod_w:
        if w not in types:
            raise InputError(f"library map {name!r} uses undeclared type {w!r}")
    dom = tensor_all([types[w] for w in dom_w])
    cod = tensor_all([types[w] for w in cod_w])
    matrix = tuple(tuple(Fraction(x) for x in row) for row in spec["matrix"])
    return LibraryMap(name, libname, dom_w, cod_w,
                      StochMap(dom, cod, matrix), bool(spec.get("free", True)))


_ITEM_ID = re.compile(r"id\[\s*(\w+)\s*\]$")
_ITEM_SWAP = re.compile(r"swap\[\s*(\w+)\s*,\s*(\w+)\s*\]$")
_ITEM_HOLE = re.compile(r"hole\s+(\w+)\(\s*([\w\s,]+?)\s*->\s*([\w\s,]+?)\s*\)$")
_ITEM_BOX = re.compile(r"(\w+)\[\s*(\w+)\s*\]$")


def parse_circuit(text: str, library_files: Mapping[str, Mapping] | None = None,
                  base_dir: str | Path = ".") -> CircuitDiagram:
    """Parse the DSL; library paths resolve through `library_files` first,
    then relative to `base_dir`."""
    types: dict[str, int] = {}
    finsets: dict[str, FinSet] = {}
    libraries: list[tuple[str, str]] = []
    lib_data: dict[str, Mapping] = {}
    lib_cache: dict[tuple[str, str], LibraryMap] = {}
    input_wires: tuple[str, ...] | None = None
    layers: list[tuple[Item, ...]] = []
    hole_names: set[str] = set()

    def resolve_box(lib: str, name: str, lineno: int, col: int) -> LibraryMap:
        if lib not in lib_data:
            raise ParseError(f"unknown library {lib!r}", lineno, col)
        key = (lib, name)
        if key not in lib_cache:
            try:
                lib_cache[key] = load_library_map(lib, lib_data[lib], name, finsets)
            except InputError as exc:
                raise ParseError(str(exc), lineno, col) from None
        return lib_cache[key]

    def wire_list(raw: str, lineno: int, col: int) -> tuple[str, ...]:
        names = tuple(w.strip() for w in raw.split(",") if w.strip())
        for w in names:
            if w not in types:
                raise ParseError(f"undeclared wire type {w!r}", lineno, col)
        return names

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
                if name in types:
                    raise ParseError(f"duplicate type {name!r}", lineno, indent)
                if size < 1:
                    raise ParseError(f"type {name!r} must have size >= 1", lineno, indent)
                types[name] = size
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
                if not full.exists():
                    raise ParseError(f"library file {path!r} not found", lineno, indent)
                data = json.loads(full.read_text())
            libraries.append((name, path))
            lib_data[name] = data
        elif stripped.startswith("input:"):
            if input_wires is not None:
                raise ParseError("duplicate input declaration", lineno, indent)
            input_wires = wire_list(stripped[len("input:"):], lineno, indent)
        elif stripped.startswith("layer:"):
            if input_wires is None:
                raise ParseError("input must be declared before layers", lineno, indent)
            items: list[Item] = []
            col = line.index("layer:") + len("layer:") + 1
            for chunk in stripped[len("layer:"):].split(";"):
                piece = chunk.strip()
                if not piece:
                    raise ParseError("empty layer item", lineno, col)
                items.append(_parse_item(piece, lineno, col, types, resolve_box,
                                         hole_names, wire_list))
                col += len(chunk) + 1
            layers.append(tuple(items))
        else:
            raise ParseError(f"unrecognized line {stripped!r}", lineno, indent)

    if input_wires is None:
        raise ParseError("missing input declaration", max(1, text.count("\n") + 1))
    circuit = CircuitDiagram(tuple(types.items()), tuple(libraries),
                             input_wires, tuple(layers))
    _check_wiring(circuit)
    return circuit


def _parse_item(piece: str, lineno: int, col: int, types: dict[str, int],
                resolve_box, hole_names: set[str], wire_list) -> Item:
    m = _ITEM_ID.fullmatch(piece)
    if m:
        w = m.group(1)
        if w not in types:
            raise ParseError(f"undeclared wire type {w!r}", lineno, col)
        return IdItem(w)
    m = _ITEM_SWAP.fullmatch(piece)
    if m:
        for w in m.groups():
            if w not in types:
                raise ParseError(f"undeclared wire type {w!r}", lineno, col)
        return SwapItem(m.group(1), m.group(2))
    m = _ITEM_HOLE.fullmatch(piece)
    if m:
        name = m.group(1)
        if name in hole_names:
            raise ParseError(f"duplicate hole name {name!r}", lineno, col)
        hole_names.add(name)
        return HoleItem(name, wire_list(m.group(2), lineno, col),
                        wire_list(m.group(3), lineno, col))
    m = _ITEM_BOX.fullmatch(piece)
    if m:
        name, lib = m.group(1), m.group(2)
        return BoxItem(name, lib, resolve_box(lib, name, lineno, col))
    raise ParseError(f"cannot parse item {piece!r}", lineno, col)


def _check_wiring(c: CircuitDiagram) -> None:
    wires = c.input_wires
    for depth, layer in enumerate(c.layers, start=1):
        needed = sum((it.dom_wires for it in layer), ())
        if needed != wires:
            bad = next((i for i, (x, y) in enumerate(zip(needed, wires)) if x != y),
                       min(len(needed), len(wires)))
            raise ParseError(
                f"layer {depth} consumes wires {needed} but receives {wires}; "
                f"first mismatch at wire {bad}", depth, 1)
        wires = sum((it.cod_wires for it in layer), ())


def item_map(c: CircuitDiagram, it: Item, hole_maps: Mapping[str, StochMap]) -> StochMap:
    if isinstance(it, BoxItem):
        return it.entry.map
    if isinstance(it, IdItem):
        return identity(c.finset_of(it.wire))
    if isinstance(it, SwapItem):
        return swap(c.finset_of(it.first), c.finset_of(it.second))
    if it.name not in hole_maps:
        raise InputError(f"no process supplied for hole {it.name!r}")
    f = hole_maps[it.name]
    if f.dom.elements != c.wires_finset(it.dom_wires).elements \
            or f.cod.elements != c.wires_finset(it.cod_wires).elements:
        raise InputError(f"process for hole {it.name!r} has the wrong type")
    return f


def evaluate_circuit(c: CircuitDiagram, hole_maps: Mapping[str, StochMap] | None = None) -> StochMap:
    """Direct bottom-up evaluation with the given processes in the holes."""
    hole_maps = hole_maps or {}
    acc = identity(c.wires_finset(c.input_wires))
    for layer in c.layers:
        layer_map = item_map(c, layer[0], hole_maps)
        for it in layer[1:]:
            layer_map = compose_par(layer_map, item_map(c, it, hole_maps))
        acc = compose_seq(layer_map, acc)
    return acc


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
            if isinstance(it, BoxItem) and not it.entry.free:
                raise InputError(f"non-free map {it.name!r} cannot appear in a comb")

    k_layer, k_pos = next((i, j) for i, layer in enumerate(c.layers)
                          for j, it in enumerate(layer) if isinstance(it, HoleItem))
    hole = c.layers[k_layer][k_pos]
    hole_dom = c.wires_finset(hole.dom_wires)
    hole_cod = c.wires_finset(hole.cod_wires)

    below = identity(c.wires_finset(c.input_wires))
    for layer in c.layers[:k_layer]:
        m = item_map(c, layer[0], {})
        for it in layer[1:]:
            m = compose_par(m, item_map(c, it, {}))
        below = compose_seq(m, below)

    left_items = c.layers[k_layer][:k_pos]
    right_items = c.layers[k_layer][k_pos + 1:]

    def fold(items: Sequence[Item]) -> StochMap:
        m = identity(UNIT)
        for it in items:
            m = compose_par(m, item_map(c, it, {}))
        return m

    u_left = fold(left_items)
    u_right = fold(right_items)
    left_cod, right_cod = u_left.cod, u_right.cod

    pre = compose_seq(compose_par(compose_par(u_left, identity(hole_dom)), u_right), below)
    pre = compose_seq(compose_par(swap(left_cod, hole_dom), identity(right_cod)), pre)

    above = identity(c.wires_finset(sum((it.cod_wires for it in c.layers[k_layer]), ())))
    for layer in c.layers[k_layer + 1:]:
        m = item_map(c, layer[0], {})
        for it in layer[1:]:
            m = compose_par(m, item_map(c, it, {}))
        above = compose_seq(m, above)
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
        lines.append("layer: " + " ; ".join(it.text() for it in layer))
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
            label = it.text().replace('"', "'")
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
