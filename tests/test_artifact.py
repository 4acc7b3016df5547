"""The shared artifact codec: a malformed landmark graph, p-LOG or p-LGG
file loads as a typed error with a JSON pointer, never as a crash or as a
silently wrong graph."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from plgg.artifact import LggFormatError
from plgg.instantiate import instantiate_task, plgg_from_json, plgg_to_json
from plgg.lgg import extract_lgg, lgg_from_json, lgg_to_json
from plgg.plog import VocabularyError, plog_from_json, plog_to_json


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
