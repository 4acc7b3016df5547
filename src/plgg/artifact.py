"""The file layouts shared by landmark graph, p-LOG and p-LGG files.

Every artifact is one JSON object whose `vertices` key holds a sorted table
of atoms `{pred: str, args: [str]}`; its other records point into that
table by index.  Each kind of artifact declares one `Schema` of field
checks, and both directions read it:

- `read_artifact` parses a file against the schema and raises
  `LggFormatError`, with a JSON pointer, at the first violation;
  `plgg.pddl.read_file` adds the file's path to that error.
- `write_artifact` writes the bytes that
  `json.dumps(payload, indent=2, sort_keys=True) + "\\n"` gives: every
  check carries the encoder of its value, and each table of records is
  written through one template, built with the schema.

Writers build the atom table with `atom_table`; `write_dot` renders a
graph over that table in Graphviz.
"""

from __future__ import annotations

import json
import reprlib
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, NamedTuple

from .pddl import Atom, PddlError


class LggFormatError(PddlError):
    """A persisted artifact violates its schema; carries a JSON pointer."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer


# Writes one value as JSON text.
Encoder = Callable[[Any], str]


class Check(NamedTuple):
    """One field of an artifact.

    `read(value, pointer, atoms)` returns the JSON value at `pointer` as
    the program uses it, given the atom table, or raises `LggFormatError`;
    it is None for a field that is written but ignored on reading.
    `writer(depth)` returns the encoder of the field's values, for a value
    that starts on a line indented `depth` levels of two spaces.
    """

    read: Callable[[Any, str, list[Atom]], Any] | None
    writer: Callable[[int], Encoder]


def atom_table(atoms: Iterable[Atom]) -> tuple[list[Atom], dict[Atom, int]]:
    """The sorted, duplicate-free table of `atoms` and each atom's index."""
    table = sorted(set(atoms))
    return table, {a: i for i, a in enumerate(table)}


def write_dot(name: str, atoms: list[Atom], dashed: Callable[[Atom], bool],
              edges: Iterable[tuple[int, int, float]]) -> str:
    """The Graphviz text of the graph `name`: a node per atom of the table,
    labelled with the atom as a quoted string and dashed where `dashed`
    says, then an edge per (source index, destination index, mu), labelled
    with mu."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, atom in enumerate(atoms):
        label = str(atom).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"{" style=dashed" if dashed(atom) else ""}];')
    lines += (f'  n{s} -> n{d} [label="{mu:.2f}"];' for s, d, mu in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _kind(what: str, test: Callable[[Any], bool], convert: Callable = lambda v: v):
    def read(value, ptr: str, atoms: list[Atom]):
        if not test(value):
            raise LggFormatError(f"expected {what}, not {reprlib.repr(value)}", ptr)
        return convert(value)
    return read


def _scalar(encode: Encoder) -> Callable[[int], Encoder]:
    return lambda depth: encode


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: float) -> str:
    """A number as `json` writes it: a float through `float.__repr__`, an
    int (such as a `mu` of 1 rather than 1.0) through `int.__repr__`."""
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _array(depth: int, items: Callable[[Any], Iterable[str]]) -> Encoder:
    """The encoder of an array whose values `items` writes one text each."""
    item, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth + "]"

    def write(values) -> str:
        return "[" + item + ("," + item).join(items(values)) + close if values else "[]"
    return write


def _vertex(value, ptr: str, atoms: list[Atom]) -> Atom:
    """An index into the atom table, read as the atom it points at."""
    if not _is_int(value) or not 0 <= value < len(atoms):
        raise LggFormatError(f"{reprlib.repr(value)} is not a vertex index", ptr)
    return atoms[value]


string = Check(_kind("a string", lambda v: isinstance(v, str)),
               _scalar(encode_basestring_ascii))
positive_int = Check(_kind("a positive integer", lambda v: _is_int(v) and v > 0),
                     _scalar(int.__repr__))
probability = Check(_kind("a number in [0, 1]",
                          lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= 1, float),
                    _scalar(_number))
vertex = Check(_vertex, _scalar(int.__repr__))
# A boolean that is written but ignored on reading.
flag = Check(None, _scalar(lambda value: "true" if value else "false"))
_strings = Check(_kind("an array of strings",
                       lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v),
                       tuple), lambda depth: _array(depth, partial(map, encode_basestring_ascii)))
_is_array = _kind("an array", lambda v: isinstance(v, list))


def one_of(*choices: str) -> Check:
    return Check(_kind(f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices),
                 _scalar(encode_basestring_ascii))


def records(fields: dict[str | int, Check], unique: tuple[str | int, ...]) -> Check:
    """An array of records, each a tuple of its fields in order: objects
    with the named keys, or arrays when the keys are 0, 1, ...
    Reading drops the fields that are not read.  No two records may agree
    on every field named in `unique`."""
    positional = list(fields) == list(range(len(fields)))
    shape = (f"an array of {len(fields)} entries" if positional
             else f"an object with keys {', '.join(k for k, c in fields.items() if c.read)}")
    reads = {k: c.read for k, c in fields.items() if c.read}

    def read(value, ptr: str, atoms: list[Atom]) -> list[tuple]:
        rows, seen = [], set()
        for i, entry in enumerate(_is_array(value, ptr, atoms)):
            here = f"{ptr}/{i}"
            if not (isinstance(entry, list) and len(entry) == len(fields) if positional
                    else isinstance(entry, dict) and all(k in entry for k in reads)):
                raise LggFormatError(f"expected {shape}", here)
            row = {k: r(entry[k], f"{here}/{k}", atoms) for k, r in reads.items()}
            key = tuple(row[k] for k in unique)
            if key in seen:
                raise LggFormatError(f"duplicate {', '.join(map(str, unique))}", here)
            seen.add(key)
            rows.append(tuple(row.values()))
        return rows

    def writer(depth: int) -> Encoder:
        """Fills one template per record, its keys sorted as `sort_keys`
        sorts them."""
        keys = list(fields)
        order = keys if positional else sorted(keys)
        encoders = [(keys.index(k), fields[k].writer(depth + 2)) for k in order]
        slots = ("%s" if positional else encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                 for k in order)
        opening, closing = "[]" if positional else "{}"
        field = "\n" + "  " * (depth + 2)
        template = opening + ",".join(field + s for s in slots) + "\n" + "  " * (depth + 1) + closing

        def items(rows):
            columns = list(zip(*rows))
            return map(template.__mod__, zip(*[map(encode, columns[i]) for i, encode in encoders]))
        return _array(depth, items)

    return Check(read, writer)


def atoms(**extra: Check) -> Check:
    """The atom table: records `{pred, args}` that no two repeat, plus the
    `extra` fields, which are written but not read."""
    return records({"pred": string, "args": _strings, **extra}, unique=("pred", "args"))


class Schema:
    """The top-level fields of one kind of artifact: its atom table under
    `vertices`, and the `fields` around it, read in the order given."""

    def __init__(self, vertices: Check = atoms(), **fields: Check):
        self.vertices = vertices
        self.fields = fields
        layout = {"vertices": vertices, **fields}
        self.writers = [(f"\n  {encode_basestring_ascii(k)}: ", k, layout[k].writer(1))
                        for k in sorted(layout)]


def read_artifact(text: str, schema: Schema) -> dict:
    """Parse `text` as an artifact of `schema`.

    Returns the atom table under `vertices` and every other field as its
    check read it.  Keys of the object not named in the schema are ignored.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise LggFormatError(f"not valid JSON: {exc}", "/") from None
    for key in ("vertices", *schema.fields):
        if not isinstance(payload, dict) or key not in payload:
            raise LggFormatError(f"expected an object with key {key!r}", "/")
    atoms = list(map(Atom._make, schema.vertices.read(payload["vertices"], "/vertices", [])))
    return dict(vertices=atoms, **{k: c.read(payload[k], f"/{k}", atoms)
                                   for k, c in schema.fields.items()})


def write_artifact(schema: Schema, **values) -> str:
    """The text of an artifact of `schema` holding `values`: for
    `vertices` and each table of records, a list of rows, each a tuple of
    the fields in the schema's order."""
    return "{" + ",".join(key + write(values[k]) for key, k, write in schema.writers) + "\n}\n"
