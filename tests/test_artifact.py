"""The shared artifact codec: a malformed landmark graph, p-LOG or p-LGG
file loads as a typed error with a JSON pointer, never as a crash or as a
silently wrong graph; every file is written in the bytes `json.dumps` gives
its payload; and the Graphviz renderings quote every label."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import plgg.instantiate as instantiate
import plgg.lgg as lgg
import plgg.plog as plog_module
from plgg.artifact import LggFormatError, write_artifact
from plgg.instantiate import (instantiate_task, plgg_from_json, plgg_to_dot, plgg_to_json,
                              read_plgg, write_plgg)
from plgg.lgg import LGG, extract_lgg, lgg_from_json, lgg_to_json
from plgg.pddl import Atom, ground_task, parse_problem
from plgg.plog import (VocabularyError, learn_plog, plog_from_json, plog_to_dot,
                       plog_to_json)

from conftest import BENCH, COURIER, COURIER_CORPUS, CORPUS, GRIPPER, GRIPPER_CORPUS


@pytest.fixture(scope="module")
def artifact(make_task, plog):
    """A valid file of each kind, with its reader: p05's landmark graph,
    the p-LOG learned from p01-p04, and that p-LOG instantiated on p05."""
    task = make_task("p05")
    files = {"lgg": (lgg_to_json(extract_lgg(task)), lgg_from_json),
             "plog": (plog_to_json(plog), plog_from_json),
             "plgg": (plgg_to_json(instantiate_task(plog, task)), plgg_from_json)}

    def of_kind(kind):  # a function, so that Hypothesis reports stay short
        return files[kind]
    return of_kind


def node_paths(value, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from node_paths(child, path + (key,))


def replaced(value, path, new):
    if not path:
        return new
    copy = value.copy()
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("kind,allowed", [
    ("lgg", LggFormatError),
    ("plog", (LggFormatError, VocabularyError)),  # counts may contradict each other
    ("plgg", LggFormatError),
])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_one_node_replaced_loads_or_raises_format_error(artifact, kind, allowed, data):
    text, read = artifact(kind)
    payload = json.loads(text)
    path = data.draw(st.sampled_from(list(node_paths(payload))), label="path")
    try:
        read(json.dumps(replaced(payload, path, data.draw(JSON, label="value"))))
    except allowed:
        pass


def _set(path, value):
    return lambda payload: replaced(payload, path, value)


def _duplicate_first(key):
    return lambda payload: {**payload, key: payload[key][:1] + payload[key]}


def _first_edge_to_its_source(payload):
    """The first edge of a landmark graph turned into a self-loop."""
    return replaced(payload, ("edges", 0, 1), payload["edges"][0][0])


def _repeat_first_edge(mu):
    """The first edge listed again after itself, with another `mu`."""
    return lambda payload: {**payload, "edges": payload["edges"][:1]
                            + [{**payload["edges"][0], "mu": mu}] + payload["edges"][1:]}


# Malformed files, each with the pointer of its first violation.
MALFORMED = [
    pytest.param("plog", _set(("edges", 0, "n"), -3), "/edges/0/n", id="plog-negative-n"),
    pytest.param("plog", _set(("log_counts", 0, "n_graph"), -2), "/log_counts/0/n_graph",
                 id="plog-negative-n_graph"),
    pytest.param("plog", _set(("log_counts", 0, "n_graph"), True), "/log_counts/0/n_graph",
                 id="plog-bool-n_graph"),
    pytest.param("plog", _set(("vertices",), 5), "/vertices", id="plog-vertices-not-array"),
    pytest.param("plog", _set(("domain",), 3), "/domain", id="plog-domain-not-string"),
    pytest.param("plog", _duplicate_first("edges"), "/edges/1", id="plog-duplicate-edge"),
    pytest.param("plog", _duplicate_first("log_counts"), "/log_counts/1",
                 id="plog-duplicate-log-count"),
    pytest.param("lgg", _set(("vertices", 0, "args"), ["?x"]), "/vertices/0",
                 id="lgg-lifted-vertex"),
    # `extract_lgg` writes neither: a candidate is never its own landmark
    pytest.param("lgg", _duplicate_first("edges"), "/edges/1", id="lgg-duplicate-edge"),
    pytest.param("lgg", _first_edge_to_its_source, "/edges/0", id="lgg-self-loop"),
    pytest.param("plgg", _set(("edges", 0, "src"), -1), "/edges/0/src", id="plgg-negative-index"),
    pytest.param("plgg", _set(("edges", 0, "mu"), 7), "/edges/0/mu", id="plgg-mu-above-one"),
    pytest.param("plgg", _set(("vertices", 0, "args"), [1]), "/vertices/0/args",
                 id="plgg-integer-arg"),
    pytest.param("plgg", _set(("domain",), None), "/domain", id="plgg-domain-not-string"),
    pytest.param("plgg", _repeat_first_edge(0.9), "/edges/1", id="plgg-duplicate-edge"),
]


@pytest.mark.parametrize("kind,mutate,pointer", MALFORMED)
def test_malformed_artifact_raises_format_error(artifact, kind, mutate, pointer):
    text, read = artifact(kind)
    with pytest.raises(LggFormatError) as err:
        read(json.dumps(mutate(json.loads(text))))
    assert err.value.pointer == pointer


def test_plgg_reader_accepts_a_self_loop(artifact):
    # a rewrite can give an edge's two ends one grounding
    payload = json.loads(artifact("plgg")[0])
    loop = {**payload["edges"][0], "dst": payload["edges"][0]["src"]}
    graph = plgg_from_json(json.dumps({**payload, "edges": [loop]}))
    (src, dst), = graph.edges
    assert src == dst


# --- writing ------------------------------------------------------------------


def canonical(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Strings with escapes, control characters and non-ASCII text.
TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\n\t\x1f\x7fé€\u2028😀'),
               max_size=6)
ARGS = st.lists(TEXT, max_size=3).map(tuple)  # 0-ary atoms included
INDEX = st.integers(0, 10**6)
COUNT = st.integers(1, 10**12)
MU = st.sampled_from([1e-05, 0.1, 1 / 3, 1.0, 0, 1]) | st.floats(0, 1)


def rows(*fields):
    """A table of records; it may be empty."""
    return st.lists(st.tuples(*fields), max_size=4)


def payload_of(values, **tables):
    """`values` as `json` sees them: each named table's rows as objects
    with the given keys, or as arrays when no keys are given."""
    return dict(values, **{name: [dict(zip(keys, row)) if keys else list(row)
                                  for row in values[name]] for name, keys in tables.items()})


def vertex_rows(*extra):
    return rows(TEXT, ARGS, *extra)  # `json` writes a tuple of args as an array


@st.composite
def lgg_values(draw):
    values = dict(task=draw(TEXT), order_type=draw(TEXT), vertices=draw(vertex_rows()),
                  edges=draw(rows(INDEX, INDEX)))
    return values, payload_of(values, vertices=("pred", "args"), edges=())


@st.composite
def plog_values(draw):
    values = dict(domain=draw(TEXT), vertices=draw(vertex_rows()),
                  edges=draw(rows(INDEX, INDEX, COUNT, MU)), log_counts=draw(rows(INDEX, COUNT)))
    return values, payload_of(values, vertices=("pred", "args"),
                              edges=("src", "dst", "n", "mu"), log_counts=("vertex", "n_graph"))


@st.composite
def plgg_values(draw):
    values = dict(domain=draw(TEXT), side=draw(TEXT), vertices=draw(vertex_rows(st.booleans())),
                  edges=draw(rows(INDEX, INDEX, MU)))
    return values, payload_of(values, vertices=("pred", "args", "grounded"),
                              edges=("src", "dst", "mu"))


@pytest.mark.parametrize("schema,drawn", [
    (lgg.SCHEMA, lgg_values()),
    (plog_module.SCHEMA, plog_values()),
    (instantiate.SCHEMA, plgg_values()),
], ids=["lgg", "plog", "plgg"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_writer_matches_json_dumps(schema, drawn, data):
    values, payload = data.draw(drawn)
    assert write_artifact(schema, **values) == canonical(payload)


@pytest.mark.parametrize("directory,names", [(BENCH, CORPUS), (GRIPPER, GRIPPER_CORPUS),
                                             (COURIER, COURIER_CORPUS)],
                         ids=["blocksworld", "gripper", "courier"])
def test_fixture_artifacts_are_canonical(load, directory, names):
    """Every landmark graph of a fixture domain, the p-LOG learned from all
    of them, and that p-LOG instantiated on every task."""
    tasks = [load(directory, name)[2] for name in names]
    graphs = [extract_lgg(task) for task in tasks]
    learned = learn_plog(graphs, domain=load(directory, names[0])[0].name)
    texts = ([lgg_to_json(g) for g in graphs] + [plog_to_json(learned)]
             + [plgg_to_json(instantiate_task(learned, task)) for task in tasks])
    for text in texts:
        assert text == canonical(json.loads(text))


# --- Graphviz -----------------------------------------------------------------

# A node or an edge statement, with its label as a DOT quoted string.
DOT_STATEMENT = re.compile(r'  n\d+ (?:-> n\d+ )?\[label=("(?:[^"\\]|\\.)*")'
                           r'(?: style=dashed)?\];')


def dot_labels(dot: str) -> list[str]:
    """The labels of every statement of `dot`, unquoted; fails on a line
    that is not a statement with a well-formed quoted label."""
    lines = dot.splitlines()
    assert lines[0].startswith("digraph ") and lines[1] == "  rankdir=BT;" and lines[-1] == "}"
    labels = []
    for line in lines[2:-1]:
        match = DOT_STATEMENT.fullmatch(line)
        assert match, line
        labels.append(re.sub(r"\\(.)", r"\1", match.group(1)[1:-1]))
    return labels


@pytest.fixture(scope="module")
def quoted_task(domain):
    """p06 with block b renamed x"y, which the tokenizer accepts as a name."""
    text = re.sub(r"(?<=[\s(])b(?=[\s)])", 'x"y', (BENCH / "p06.pddl").read_text())
    return ground_task(domain, parse_problem(text, domain))


def test_plgg_dot_quotes_every_label(plog, quoted_task, tmp_path):
    plgg = instantiate_task(plog, quoted_task)
    labels = dot_labels(plgg_to_dot(plgg))
    assert Atom("clear", ('x"y',)) in plgg.nodes
    assert 'clear(x"y)' in labels
    assert set(labels) >= {str(a) for a in plgg.nodes}
    text = plgg_to_json(plgg)
    assert text == canonical(json.loads(text))
    write_plgg(plgg, tmp_path / "p06.plgg.json")
    assert plgg_to_json(read_plgg(tmp_path / "p06.plgg.json")) == text


def test_plog_dot_quotes_every_label():
    quirky = Atom('on"\\', ("a", "b"))
    learned = learn_plog([LGG(task="t", vertices=frozenset({quirky, Atom("clear", ("a",))}),
                              edges=frozenset({(Atom("clear", ("a",)), quirky)}))],
                         domain="d")
    labels = dot_labels(plog_to_dot(learned))
    assert {str(a) for a in learned.atoms} <= set(labels)
    assert 'on"\\(?x0, ?x1)' in labels
