"""The benchmark's tracer finds the program's functions and log messages by
name; these checks fail as soon as a rename or a reworded warning would
leave its spans or counters silently empty.  `perfbench/spans.py` is read,
never edited."""

import importlib
import importlib.util
import logging
import sys
from pathlib import Path

import pytest

from plgg.instantiate import apply_instantiation
from plgg.pddl import Atom

from conftest import SideGraph, VarConstraintStore, side_state, update_distinct_consts

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # dataclasses look their defining module up in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_target_resolves(spans):
    assert spans.TARGETS
    for module_name, fn_name, _ in spans.TARGETS:
        fn = getattr(importlib.import_module(module_name), fn_name, None)
        assert callable(fn), f"{module_name}.{fn_name}"


def test_dropped_binding_warning_matches_the_counted_message(spans):
    store = VarConstraintStore()
    lifted = Atom("on", ("b", "?x0"))
    update_distinct_consts(store, lifted, Atom("clear", ("a",)))
    state = side_state(SideGraph(nodes={lifted: {}}, side="goal", store=store))
    counter = spans.LogCounter()
    logger = logging.getLogger("plgg")
    logger.addHandler(counter)
    try:
        apply_instantiation(state, {"?x0": "a"})
    finally:
        logger.removeHandler(counter)
    assert Atom("on", ("b", "a")) not in state.nodes
    assert counter.counts == {spans.DROPPED_BINDING: 1}
