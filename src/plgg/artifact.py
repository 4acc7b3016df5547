"""The JSON layout shared by landmark graph, p-LOG and p-LGG files.

Every artifact is one JSON object whose `vertices` key holds a sorted table
of atoms `{pred: str, args: [str]}`; its other records point into that
table by index.  Writers build the table with `atom_table` and serialize
with `dumps`.  `read_artifact` parses a file against a schema of checks
and raises `LggFormatError`, with a JSON pointer, at the first violation;
`plgg.pddl.read_file` adds the file's path to that error.
"""

from __future__ import annotations

import json
import reprlib
from typing import Any, Callable, Iterable

from .pddl import Atom, PddlError


class LggFormatError(PddlError):
    """A persisted artifact violates its schema; carries a JSON pointer."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer


# Reads the JSON value at a pointer, given the atom table, or raises LggFormatError.
Check = Callable[[Any, str, list[Atom]], Any]


def atom_table(atoms: Iterable[Atom]) -> tuple[list[Atom], dict[Atom, int]]:
    """The sorted, duplicate-free table of `atoms` and each atom's index."""
    table = sorted(set(atoms))
    return table, {a: i for i, a in enumerate(table)}


def atom_payload(atom: Atom) -> dict:
    return {"pred": atom.pred, "args": list(atom.args)}


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _kind(what: str, test: Callable[[Any], bool], convert: Callable = lambda v: v) -> Check:
    def check(value, ptr: str, atoms: list[Atom]):
        if not test(value):
            raise LggFormatError(f"expected {what}, not {reprlib.repr(value)}", ptr)
        return convert(value)
    return check


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


string = _kind("a string", lambda v: isinstance(v, str))
positive_int = _kind("a positive integer", lambda v: _is_int(v) and v > 0)
probability = _kind("a number in [0, 1]",
                    lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= 1, float)
_strings = _kind("an array of strings",
                 lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v), tuple)
_array = _kind("an array", lambda v: isinstance(v, list))


def one_of(*choices: str) -> Check:
    return _kind(f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices)


def vertex(value, ptr: str, atoms: list[Atom]) -> Atom:
    """An index into the atom table, read as the atom it points at."""
    if not _is_int(value) or not 0 <= value < len(atoms):
        raise LggFormatError(f"{reprlib.repr(value)} is not a vertex index", ptr)
    return atoms[value]


def records(fields: dict[str | int, Check], unique: tuple[str, ...] = ()) -> Check:
    """An array of records, each read into a tuple of its fields in order:
    objects with the named keys, or arrays when the keys are 0, 1, ...
    No two records may agree on every field named in `unique`."""
    positional = list(fields) == list(range(len(fields)))
    shape = (f"an array of {len(fields)} entries" if positional
             else f"an object with keys {', '.join(fields)}")

    def check(value, ptr: str, atoms: list[Atom]) -> list[tuple]:
        rows, seen = [], set()
        for i, entry in enumerate(_array(value, ptr, atoms)):
            here = f"{ptr}/{i}"
            if not (isinstance(entry, list) and len(entry) == len(fields) if positional
                    else isinstance(entry, dict) and all(k in entry for k in fields)):
                raise LggFormatError(f"expected {shape}", here)
            row = {k: c(entry[k], f"{here}/{k}", atoms) for k, c in fields.items()}
            key = tuple(row[k] for k in unique)
            if unique and key in seen:
                raise LggFormatError(f"duplicate {', '.join(unique)}", here)
            seen.add(key)
            rows.append(tuple(row.values()))
        return rows
    return check


_atoms = records({"pred": string, "args": _strings}, unique=("pred", "args"))


def read_artifact(text: str, **fields: Check) -> dict:
    """Parse `text` as an artifact with the given top-level `fields`.

    Returns the atom table under `vertices` and every other field as its
    check read it.  Keys of the object not named in `fields` are ignored.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise LggFormatError(f"not valid JSON: {exc}", "/") from None
    for key in ("vertices", *fields):
        if not isinstance(payload, dict) or key not in payload:
            raise LggFormatError(f"expected an object with key {key!r}", "/")
    atoms = list(map(Atom._make, _atoms(payload["vertices"], "/vertices", [])))
    return dict(vertices=atoms, **{k: c(payload[k], f"/{k}", atoms) for k, c in fields.items()})
