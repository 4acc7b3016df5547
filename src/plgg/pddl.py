"""Typed STRIPS fragment of PDDL: model types, parser, printer, grounding.

The fragment accepted here is deliberately small: ``:strips`` and ``:typing``
are the only requirements honoured, preconditions are conjunctions of
positive atoms, and effects are conjunctions of positive and negated atoms.
Identifiers are case-insensitive and normalised to lower case.  Domain and
problem files share one ``define`` reader; malformed text raises
`ParseError` at the token or form it is about, and its message ends with
that line and column.

`ground_task` grounds column by column and leaves a `TaskIndex` on the task:
the fact table and the fact ids, keyed by the atom itself (an `Atom` is a
named tuple, interned once per fact), each kept action's fact ids, per fact
its consumers, the levels of grounding's own exploration `explore`, the
counter-based one of FF, which the landmark oracle reruns, and per schema
the mask of its kept rows.  The achievers, and the task's `GroundAction`s
read from those rows, are built on first read.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from operator import and_, itemgetter, ne
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

ROOT_TYPE = "object"
SUPPORTED_REQUIREMENTS = frozenset({":strips", ":typing"})


class PddlError(Exception):
    """Base class for everything that can go wrong building a task model."""


class ParseError(PddlError):
    """Malformed PDDL.  `at` is the token or form the error is about; its
    line and column end the message and stay on `line` and `column`."""

    def __init__(self, message: str, at: _Tok | _SList | None = None):
        self.line = self.column = None
        if at is not None:  # counted from the offset only here
            self.line = at.src.count("\n", 0, at.pos) + 1
            self.column = at.pos - at.src.rfind("\n", 0, at.pos)
            message = f"{message} (line {self.line}, column {self.column})"
        super().__init__(message)


def read_file(path: str | Path, parse: Callable[[str], Any]) -> Any:
    """`parse` the text of the file at `path`, read as UTF-8.  Undecodable
    bytes, and a `PddlError` from `parse`, such as a parse or schema error,
    raise a `PddlError` that names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PddlError(f"{path}: {exc}") from exc
    try:
        return parse(text)
    except PddlError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def is_variable(symbol: str) -> bool:
    """Parameters beginning with ``?`` denote variables, anything else objects."""
    return symbol.startswith("?")


class Atom(NamedTuple):
    """A predicate applied to a tuple of parameter symbols.

    The same class covers lifted and ground atoms; an atom is ground when
    none of its arguments is a ``?``-variable.  It equals, hashes and sorts
    as the tuple ``(pred, args)``, so an atom is its own key.
    """

    pred: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.pred}({', '.join(self.args)})"

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        return not any(map(is_variable, self.args))

    def objects(self) -> frozenset[str]:
        return frozenset(a for a in self.args if not is_variable(a))

    def variables(self) -> frozenset[str]:
        return frozenset(a for a in self.args if is_variable(a))

    def substitute(self, binding: Mapping[str, str]) -> "Atom":
        """Replace every argument that appears as a key in `binding`."""
        return Atom(self.pred, tuple(binding.get(a, a) for a in self.args))


@dataclass(frozen=True)
class Predicate:
    name: str
    param_types: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.param_types)


@dataclass(frozen=True)
class ActionSchema:
    """A lifted action. `params` keeps declaration order as (variable, type)."""

    name: str
    params: tuple[tuple[str, str], ...]
    pre: frozenset[Atom]
    add: frozenset[Atom]
    delete: frozenset[Atom]


@dataclass(frozen=True, order=True)
class GroundAction:
    name: str
    args: tuple[str, ...]
    pre: frozenset[Atom] = field(compare=False)
    add: frozenset[Atom] = field(compare=False)
    delete: frozenset[Atom] = field(compare=False)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.args)})"


@dataclass
class Domain:
    name: str
    types: dict[str, str | None]          # type name -> parent (None for the root)
    predicates: dict[str, Predicate]
    schemas: dict[str, ActionSchema]
    constants: dict[str, str]             # constant name -> type

    def is_subtype(self, sub: str, ancestor: str) -> bool:
        """True when `sub` equals `ancestor` or descends from it."""
        cur: str | None = sub
        while cur is not None:
            if cur == ancestor:
                return True
            cur = self.types.get(cur)
        return False


@dataclass
class Problem:
    name: str
    domain_name: str
    objects: dict[str, str]               # object name -> type
    init: frozenset[Atom]
    goal: frozenset[Atom]


class _SchemaRows(NamedTuple):
    """One schema's actions: the rows of the product of its `pools` that
    `ok` marks, those whose adds and deletes do not clash and that grounding
    reached, and per deleted atom its column of fact ids over every row."""

    name: str
    pools: tuple[tuple[str, ...], ...]
    ok: list[bool]
    delete: list[list[int]]


@dataclass(frozen=True)
class TaskIndex:
    """Integer view of a ground task, built once by `ground_task`.

    Fact ids number `atoms`, every atom grounding met; action ids number
    the kept actions in (name, args) order, and the per-fact tables list
    them in increasing order.  The levels are grounding's own `explore`'s,
    restricted to the kept actions: unreached candidates never fire.
    `achievers` is built when first read, since only extraction and the
    label pass read it; the `GroundTask.actions` view reads `schemas`.
    """

    atoms: tuple[Atom, ...]          # fact id -> atom
    ids: dict[Atom, int]             # atom -> fact id; its keys are the atoms of `atoms`
    init: tuple[int, ...]
    goal: tuple[int, ...]
    pre: list[tuple[int, ...]]       # action id -> its distinct precondition ids
    add: list[tuple[int, ...]]       # action id -> its add ids
    consumers: list[list[int]]       # fact id -> actions with it as a precondition
    fact_level: list[int]            # fact id -> relaxed level, -1 if unreached
    action_level: list[int]          # action id -> relaxed level
    schemas: tuple[_SchemaRows, ...] = field(repr=False)  # the actions, in name order

    @cached_property
    def achievers(self) -> list[list[int]]:
        """Fact id -> actions that add it."""
        return _by_fact(len(self.atoms), self.add)


@dataclass
class GroundTask:
    """A fully ground task over the delete-relaxed-reachable fact set."""

    name: str
    facts: frozenset[Atom]
    init: frozenset[Atom]
    goal: frozenset[Atom]
    index: TaskIndex = field(repr=False, compare=False)

    @cached_property
    def actions(self) -> tuple[GroundAction, ...]:
        """The kept actions in (name, args) order, built from the index when first read."""
        index = self.index
        atom = index.atoms.__getitem__
        rows = itertools.chain.from_iterable(
            itertools.compress(zip(itertools.repeat(s.name), itertools.product(*s.pools),
                                   zip(*s.delete) if s.delete else itertools.repeat(())), s.ok)
            for s in index.schemas)
        return tuple(GroundAction(name, args, frozenset(map(atom, pre)),
                                  frozenset(map(atom, add)), frozenset(map(atom, delete)))
                     for (name, args, delete), pre, add in zip(rows, index.pre, index.add))


# --- tokenizer / s-expression reader ---------------------------------------

# a paren, a ``;`` comment up to the end of its line, or a symbol
_TOKEN_RE = re.compile(r"\(|\)|;[^\n]*|[^()\s;]+")


class _Tok:
    """A lower-cased symbol, or a paren, at offset `pos` of the text `src`."""

    __slots__ = ("text", "src", "pos")

    def __init__(self, text: str, src: str, pos: int):
        self.text, self.src, self.pos = text, src, pos


class _SList(list):
    """A parenthesised group; its opening paren is at offset `pos` of `src`."""

    __slots__ = ("src", "pos")


def _read_sexprs(text: str) -> list:
    stack: list[list] = [[]]
    top = stack[0]
    for m in _TOKEN_RE.finditer(text):
        token = m.group()
        if token == "(":
            node = _SList()
            node.src, node.pos = text, m.start()
            top.append(node)
            stack.append(node)
            top = node
        elif token == ")":
            if len(stack) == 1:
                raise ParseError("unbalanced ')'", _Tok(token, text, m.start()))
            stack.pop()
            top = stack[-1]
        elif token[0] != ";":
            top.append(_Tok(token.lower(), text, m.start()))
    if len(stack) != 1:  # an open paren was read, so there is a last token
        *_, last = (m for m in _TOKEN_RE.finditer(text) if m.group()[0] != ";")
        raise ParseError("unbalanced '(': input ended inside a form",
                         _Tok(last.group().lower(), text, last.start()))
    return stack[0]


def _form_name(node) -> str:
    if isinstance(node, _SList) and node and isinstance(node[0], _Tok):
        return node[0].text
    return ""


def _expect_symbol(node, what: str) -> _Tok:
    if not isinstance(node, _Tok):
        raise ParseError(f"expected {what}, found a parenthesised form", node)
    return node


def _parse_typed_list(items: list, what: str, known_types: dict[str, str | None] | None):
    """Parse ``a b - t c d`` style lists into (name, type) pairs.

    When `known_types` is given, every mentioned type must be declared.
    """
    pairs: list[tuple[str, str, _Tok]] = []
    untyped: list[_Tok] = []
    it = iter(items)
    for item in it:
        tok = _expect_symbol(item, f"a {what} name")
        if tok.text == "-":
            try:
                type_tok = _expect_symbol(next(it), "a type name")
            except StopIteration:
                raise ParseError(f"dangling '-' in {what} list", tok) from None
            if known_types is not None and type_tok.text not in known_types:
                raise ParseError(f"unknown type {type_tok.text}", type_tok)
            for p in untyped:
                pairs.append((p.text, type_tok.text, p))
            untyped = []
        else:
            untyped.append(tok)
    for p in untyped:
        pairs.append((p.text, ROOT_TYPE, p))
    return pairs


def _check_requirements(section: _SList) -> None:
    for req in section[1:]:
        tok = _expect_symbol(req, "a requirement flag")
        if tok.text not in SUPPORTED_REQUIREMENTS:
            raise ParseError(f"unsupported requirement {tok.text}", tok)


def _check_declared(atom: Atom, predicates: Mapping[str, Predicate], where: str,
                    form: _SList) -> Predicate:
    """The declaration of the atom's predicate, which must have the atom's
    arity."""
    decl = predicates.get(atom.pred)
    if decl is None:
        raise ParseError(f"unknown predicate {atom.pred} in {where}", form)
    if decl.arity != atom.arity:
        raise ParseError(f"arity mismatch for {atom.pred} in {where}: "
                         f"expected {decl.arity}, got {atom.arity}", form)
    return decl


def _read_define(text: str, kind: str) -> tuple[str, _SList, list]:
    """The name, the ``(<kind> <name>)`` header and the sections of the one
    ``(define (<kind> <name>) ...)`` form of a domain or problem text."""
    forms = _read_sexprs(text)
    if len(forms) != 1 or _form_name(forms[0]) != "define":
        # point at the first form past a leading define; text with no form has no position
        stray = forms[1 if _form_name(forms[0]) == "define" else 0] if forms else None
        raise ParseError(f"expected a single (define ({kind} ...) ...) form", stray)
    define = forms[0]
    if len(define) < 2 or _form_name(define[1]) != kind or len(define[1]) != 2:
        raise ParseError(f"expected ({kind} <name>) after define", define)
    return _expect_symbol(define[1][1], f"a {kind} name").text, define[1], define[2:]


def _named_sections(sections: list, kind: str) -> Iterator[tuple[str, Any]]:
    """Each section of a `kind` file with its name, in order; only
    `:action` sections may repeat."""
    seen: set[str] = set()
    for section in sections:
        name = _form_name(section)
        if name in seen:
            raise ParseError(f"{kind} section {name} appears twice", section)
        if name != ":action":
            seen.add(name)
        yield name, section


def _unsupported_section(section, kind: str) -> ParseError:
    """The error for a section of a `kind` file that no branch reads."""
    name = section.text if isinstance(section, _Tok) else _form_name(section)
    if not name:
        return ParseError(f"expected a {kind} section, found a form without a name", section)
    return ParseError(f"unsupported {kind} section {name}", section)


# --- domain parsing ---------------------------------------------------------


def parse_domain(text: str) -> Domain:
    """Parse PDDL domain text into a `Domain`.

    Rejects requirements outside :strips/:typing, undeclared types and
    predicates, unbound variables, and contradictory (add and delete the
    same atom) effects.
    """
    name, _, sections = _read_define(text, "domain")
    types: dict[str, str | None] = {ROOT_TYPE: None}
    predicates: dict[str, Predicate] = {}
    schemas: dict[str, ActionSchema] = {}
    constants: dict[str, str] = {}
    for kind, section in _named_sections(sections, "domain"):
        if kind == ":requirements":
            _check_requirements(section)
        elif kind == ":types":
            declared = _parse_typed_list(section[1:], "type", None)
            for tname, parent, tok in declared:
                if tname == ROOT_TYPE:
                    if parent != ROOT_TYPE:
                        raise ParseError("the root type cannot be re-parented", tok)
                    continue
                previous = types.get(tname)
                if previous is not None and previous != parent:
                    raise ParseError(f"type {tname} declared twice with different parents", tok)
                types[tname] = parent
            for tname, parent, tok in declared:
                if parent != ROOT_TYPE and parent not in types:
                    raise ParseError(f"unknown parent type {parent}", tok)
            _check_type_forest(types, section)
        elif kind == ":constants":
            for cname, ctype, tok in _parse_typed_list(section[1:], "constant", types):
                if cname in constants:
                    raise ParseError(f"constant {cname} declared twice", tok)
                constants[cname] = ctype
        elif kind == ":predicates":
            for decl in section[1:]:
                if not isinstance(decl, _SList) or not decl:
                    raise ParseError("expected a (name ?arg - type ...) predicate declaration",
                                     decl)
                pname = _expect_symbol(decl[0], "a predicate name").text
                if pname in predicates:
                    raise ParseError(f"predicate {pname} declared twice", decl)
                params = _parse_typed_list(decl[1:], "parameter", types)
                for vname, _, tok in params:
                    if not is_variable(vname):
                        raise ParseError(f"predicate parameter {vname} must be a ?variable", tok)
                predicates[pname] = Predicate(pname, tuple(t for _, t, _ in params))
        elif kind == ":action":
            schema = _parse_action(section, types, predicates)
            if schema.name in schemas:
                raise ParseError(f"action {schema.name} declared twice", section)
            schemas[schema.name] = schema
        else:
            raise _unsupported_section(section, "domain")

    return Domain(name=name, types=types, predicates=predicates,
                  schemas=schemas, constants=constants)


def _check_type_forest(types: dict[str, str | None], section: _SList) -> None:
    for tname in types:
        seen = set()
        cur: str | None = tname
        while cur is not None:
            if cur in seen:
                raise ParseError(f"type hierarchy contains a cycle through {tname}", section)
            seen.add(cur)
            cur = types.get(cur)


def _parse_action(section: _SList, types, predicates) -> ActionSchema:
    items = list(section[1:])
    if not items:
        raise ParseError("action without a name", section)
    name = _expect_symbol(items[0], "an action name").text
    fields: dict[str, object] = {}
    i = 1
    while i < len(items):
        key = _expect_symbol(items[i], "an action keyword").text
        if key not in (":parameters", ":precondition", ":effect"):
            raise ParseError(f"unsupported action section {key}", items[i])
        if key in fields:
            raise ParseError(f"action {name} repeats {key}", items[i])
        if i + 1 >= len(items):
            raise ParseError(f"{key} without a body", items[i])
        fields[key] = items[i + 1]
        i += 2

    raw_params = fields.get(":parameters")
    if raw_params is None or not isinstance(raw_params, _SList):
        raise ParseError(f"action {name} needs a :parameters list", section)
    params: list[tuple[str, str]] = []
    for vname, vtype, tok in _parse_typed_list(list(raw_params), "parameter", types):
        if not is_variable(vname):
            raise ParseError(f"action parameter {vname} must be a ?variable", tok)
        if any(v == vname for v, _ in params):
            raise ParseError(f"parameter {vname} declared twice in action {name}", tok)
        params.append((vname, vtype))
    param_vars = {v for v, _ in params}

    def check_atom(atom: Atom, form: _SList, part: str) -> None:
        where = f"{part} of action {name}"
        _check_declared(atom, predicates, where, form)
        for a in atom.args:
            if is_variable(a) and a not in param_vars:
                raise ParseError(f"unbound variable {a} in {where}", form)
            if not is_variable(a):
                raise ParseError(f"constant {a} in {where} is not supported", form)

    # PDDL's `()` precondition or effect has no atoms, as a missing precondition has none
    pre = frozenset(_parse_conjunction(fields.get(":precondition") or None, allow_not=False,
                                       check=partial(check_atom, part="precondition")))
    if ":effect" not in fields:
        raise ParseError(f"action {name} has no :effect", section)
    literals = _parse_conjunction(fields[":effect"] or None, allow_not=True,
                                  check=partial(check_atom, part="effect"))
    add = frozenset(a for a, positive in literals if positive)
    delete = frozenset(a for a, positive in literals if not positive)
    if add & delete:
        clash = sorted(add & delete)[0]
        raise ParseError(f"action {name} both adds and deletes {clash}", section)
    return ActionSchema(name=name, params=tuple(params), pre=pre, add=add, delete=delete)


def _atom_from_form(form: _SList) -> Atom:
    pname = _expect_symbol(form[0], "a predicate name").text
    args = tuple(_expect_symbol(a, "an atom argument").text for a in form[1:])
    return Atom(pname, args)


def _parse_conjunction(form, allow_not: bool, check):
    """Flatten an atom / (not atom) / (and ...) form, nested to any depth.

    Returns plain atoms when `allow_not` is false, (atom, positive) pairs
    otherwise, in left-to-right order; an explicit stack stands in for
    recursion, so the first error is the leftmost one.
    """
    out = []
    stack = [] if form is None else [form]
    while stack:
        form = stack.pop()
        if not isinstance(form, _SList) or not form:
            raise ParseError("expected an atom, (not ...), or (and ...)", form)
        head = _form_name(form)
        if head == "and":
            stack.extend(reversed(form[1:]))
        elif head == "not":
            if not allow_not:
                raise ParseError("negations are not allowed here", form)
            if len(form) != 2 or not isinstance(form[1], _SList) or not form[1]:
                raise ParseError("(not ...) must wrap a single atom", form)
            atom = _atom_from_form(form[1])
            check(atom, form)
            out.append((atom, False))
        else:
            atom = _atom_from_form(form)
            check(atom, form)
            out.append((atom, True) if allow_not else atom)
    return out


# --- problem parsing --------------------------------------------------------


def parse_problem(text: str, domain: Domain) -> Problem:
    """Parse PDDL problem text against an already-parsed domain."""
    name, header, sections = _read_define(text, "problem")
    objects: dict[str, str] = {}
    init: set[Atom] = set()
    goal: list[Atom] | None = None
    domain_name = ""

    def check_ground_atom(atom: Atom, form: _SList, where: str) -> None:
        decl = _check_declared(atom, domain.predicates, where, form)
        for a, expected in zip(atom.args, decl.param_types):
            if is_variable(a):
                raise ParseError(f"variable {a} is not allowed in {where}", form)
            otype = objects.get(a, domain.constants.get(a))
            if otype is None:
                raise ParseError(f"unknown object {a} in {where}", form)
            if otype != expected and not domain.is_subtype(otype, expected):
                raise ParseError(f"{atom.pred} in {where} expects a {expected}, "
                                 f"got {a} of type {otype}", form)

    for kind, section in _named_sections(sections, "problem"):
        if kind == ":domain":
            if len(section) != 2:
                raise ParseError(":domain takes exactly one name", section)
            domain_name = _expect_symbol(section[1], "a domain name").text
            if domain_name != domain.name:
                raise ParseError(f"problem declares domain {domain_name}, "
                                 f"expected {domain.name}", section)
        elif kind == ":requirements":
            _check_requirements(section)
        elif kind == ":objects":
            for oname, otype, tok in _parse_typed_list(section[1:], "object", domain.types):
                if oname in objects or oname in domain.constants:
                    raise ParseError(f"object {oname} declared twice", tok)
                objects[oname] = otype
        elif kind == ":init":
            for form in section[1:]:
                if not isinstance(form, _SList) or not form:
                    raise ParseError("expected an atom in :init", form)
                atom = _atom_from_form(form)
                check_ground_atom(atom, form, ":init")
                init.add(atom)
        elif kind == ":goal":
            if len(section) != 2:
                raise ParseError(":goal takes exactly one formula", section)
            goal = _parse_conjunction(section[1], allow_not=False,
                                      check=partial(check_ground_atom, where=":goal"))
        else:
            raise _unsupported_section(section, "problem")

    if not domain_name:
        raise ParseError("problem is missing its (:domain ...) section", header)
    if goal is None:
        raise ParseError("problem is missing its (:goal ...) section", header)
    return Problem(name=name, domain_name=domain_name, objects=objects,
                   init=frozenset(init), goal=frozenset(goal))


# --- printing ---------------------------------------------------------------


def _atoms_str(atoms: Iterable[Atom]) -> str:
    return " ".join("(" + " ".join((a.pred,) + a.args) + ")" for a in sorted(atoms))


def problem_to_pddl(problem: Problem) -> str:
    """Render a problem back to PDDL text that re-parses to an equal model."""
    lines = [f"(define (problem {problem.name})",
             f"  (:domain {problem.domain_name})"]
    if problem.objects:
        objects = " ".join(f"{name} - {typ}" for name, typ in sorted(problem.objects.items()))
        lines.append(f"  (:objects {objects})")
    lines.append(f"  (:init {_atoms_str(problem.init)})")
    lines.append(f"  (:goal (and {_atoms_str(problem.goal)}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


# --- grounding --------------------------------------------------------------


def explore(init: Iterable[int], pre: Sequence[Sequence[int]], add: Sequence[Sequence[int]],
            consumers: Sequence[Sequence[int]], banned: Iterable[int] = ()
            ) -> tuple[list[int], list[int]]:
    """First level at which each fact holds / each action applies when
    deletes are ignored, by id; -1 marks the unreached ones.

    This is the counter-based exploration of FF (Hoffmann & Nebel, JAIR
    2001).  `pre` lists each action's distinct precondition ids and
    `consumers` each fact's actions with it as a precondition.  Every
    action counts its unmet preconditions, and facts leave a FIFO queue in
    the order they are reached, so their levels never decrease along it.
    An action applies when its last precondition leaves the queue, at the
    highest level of its preconditions; a fact holds one level after the
    first action that adds it, the lowest level of its achievers.  Init
    facts and actions without preconditions sit at level 0.  The `banned`
    actions never apply.
    """
    fact_level = [-1] * len(consumers)
    action_level = [-1] * len(pre)
    unmet = list(map(len, pre))
    for a in banned:
        unmet[a] = -1  # counts down from below zero, so it never reaches 0
    queue = []
    for f in init:
        if fact_level[f] < 0:
            fact_level[f] = 0
            queue.append(f)
    for a, count in enumerate(unmet):
        if count == 0:
            action_level[a] = 0
            for g in add[a]:
                if fact_level[g] < 0:
                    fact_level[g] = 1
                    queue.append(g)
    for f in queue:  # also visits the facts appended while it runs
        level = fact_level[f]
        for a in consumers[f]:
            unmet[a] -= 1
            if unmet[a] == 0:
                action_level[a] = level
                for g in add[a]:
                    if fact_level[g] < 0:
                        fact_level[g] = level + 1
                        queue.append(g)
    return fact_level, action_level


def _by_fact(n_facts: int, tables: Iterable[Iterable[int]]) -> list[list[int]]:
    """Per fact id, the ids of the actions whose table holds it."""
    out: list[list[int]] = [[] for _ in range(n_facts)]
    for a, facts in enumerate(tables):
        for f in facts:
            out[f].append(a)
    return out


def _column(ids: dict, pred: str, pools: tuple, slots: tuple[int, ...],
            combos: list) -> list[int]:
    """The fact ids of `pred` over `slots` for every row of `combos`, the
    product of the nonempty `pools`, interning new facts into `ids`.

    The distinct slots' own product lists the column's projections in the
    order the rows first meet them, so only they are interned; the table
    is then repeated out to the rows, a slot at a time from the last: a
    slot the atom does not read repeats each run of the rows after it.
    """
    used = sorted(set(slots))
    values = combos if len(used) == len(pools) else list(
        itertools.product(*map(pools.__getitem__, used)))
    if list(slots) != used:  # repeated or reordered slots
        values = map(itemgetter(*map(used.index, slots)), values)
    keys = list(zip(itertools.repeat(pred), values))
    new = itertools.filterfalse(ids.__contains__, keys)
    ids.update(zip(list(map(tuple.__new__, itertools.repeat(Atom), new)),  # `Atom._make`, unchecked
                   itertools.count(len(ids))))
    col = list(map(ids.__getitem__, keys))
    run = 1  # rows per value of the current slot
    for i in reversed(range(len(pools))):
        size = len(pools[i])
        if i not in used and size > 1:
            if run == 1:
                col = list(itertools.chain.from_iterable(zip(*[col] * size)))
            else:
                col = list(itertools.chain.from_iterable(
                    [col[k:k + run] * size for k in range(0, len(col), run)]))
        run *= size
    return col


def ground_task(domain: Domain, problem: Problem) -> GroundTask:
    """Ground a problem over its delete-relaxed-reachable fact set.

    Substitutions are enumerated per schema over type-compatible objects.
    A substitution that makes an add and a delete collide is discarded (it
    has no consistent STRIPS reading); everything else is kept exactly when
    its preconditions become reachable in the delete relaxation of the task.

    Grounding runs column by column.  A schema's substitutions are the
    product of its parameter pools, in order, and each schema atom reads
    the distinct slots its arguments use.  Its distinct projections are
    the product of those slots' pools, in the order the rows first meet
    them; each new one is interned once, as the fact's `Atom`, and the
    column of fact ids is spread from that small table to every row by
    repetition alone.  A column is computed once per predicate, slots and
    pools and shared by every atom and schema that asks for it again.  The
    task's atoms are the fact table's.  The candidates are explored by id
    over their consumer table; when every candidate is reached, the task's
    `index` keeps the candidate tables as they are, and otherwise it holds
    the kept actions' tables, rebuilt, and each schema's `ok` mask marks
    only its kept rows.
    """
    objects = dict(domain.constants)
    objects.update(problem.objects)
    ids = {a: i for i, a in enumerate(dict.fromkeys(itertools.chain(problem.init, problem.goal)))}
    columns: dict[tuple, list[int]] = {}

    def column(atom: Atom, slot: dict[str, int], pools: tuple, combos: list) -> list[int]:
        # all the pools order the rows, so they belong in the key with the slots
        slots = tuple(slot[v] for v in atom.args)
        key = (atom.pred, slots, pools)
        col = columns.get(key)
        if col is None:
            col = columns[key] = _column(ids, atom.pred, pools, slots, combos) if combos else []
        return col

    # Schemas in name order and substitutions drawn from sorted pools list
    # the candidates in (name, args) order, the order of `GroundAction`.
    schemas, pres, adds, loose = [], [], [], []
    for schema in sorted(domain.schemas.values(), key=lambda s: s.name):
        pools = tuple(tuple(sorted(o for o, ot in objects.items()
                                   if domain.is_subtype(ot, ptype)))
                      for _, ptype in schema.params)
        slot = {v: i for i, (v, _) in enumerate(schema.params)}
        s_combos = list(itertools.product(*pools))
        parts = [sorted(atoms) for atoms in (schema.pre, schema.add, schema.delete)]
        cols = [[column(a, slot, pools, s_combos) for a in part] for part in parts]
        clashes = [map(ne, add_col, del_col) for (a, add_col), (d, del_col)
                   in itertools.product(zip(parts[1], cols[1]), zip(parts[2], cols[2]))
                   if a.pred == d.pred]
        ok = list(reduce(partial(map, and_), clashes)) if clashes else [True] * len(s_combos)
        for table, part, part_cols in zip((pres, adds), parts, cols):
            part_rows = zip(*part_cols) if part_cols else itertools.repeat(())
            if len({a.pred for a in part}) < len(part):  # two atoms may ground alike
                part_rows = map(tuple, map(dict.fromkeys, part_rows))
            table.extend(itertools.compress(part_rows, ok))
        schemas.append(_SchemaRows(schema.name, pools, ok, cols[2]))
        # a deleted precondition's fact is reached whenever its action is kept
        loose.append([col for d, col in zip(parts[2], cols[2]) if d not in schema.pre])

    init = tuple(map(ids.__getitem__, problem.init))
    goal = tuple(map(ids.__getitem__, problem.goal))
    consumers = _by_fact(len(ids), pres)
    fact_level, action_level = explore(init, pres, adds, consumers)
    if -1 in action_level:  # drop the unreached candidates from every table and mask
        kept = [level >= 0 for level in action_level]
        pres, adds, action_level = (list(itertools.compress(table, kept))
                                    for table in (pres, adds, action_level))
        consumers = _by_fact(len(ids), pres)
        reached = iter(kept)
        for rows in schemas:
            rows.ok[:] = [ok and next(reached) for ok in rows.ok]
    atoms = tuple(ids)
    fact_ids = set(itertools.compress(itertools.count(), map((0).__le__, fact_level)))
    fact_ids.update(goal)
    for rows, cols in zip(schemas, loose):
        for col in cols:
            fact_ids.update(itertools.compress(col, rows.ok))
    index = TaskIndex(atoms=atoms, ids=ids, init=init, goal=goal, pre=pres, add=adds,
                      consumers=consumers, fact_level=fact_level, action_level=action_level,
                      schemas=tuple(schemas))
    return GroundTask(name=problem.name,
                      facts=frozenset(map(atoms.__getitem__, fact_ids)),
                      init=frozenset(map(atoms.__getitem__, init)),
                      goal=frozenset(map(atoms.__getitem__, goal)),
                      index=index)
