#!/usr/bin/env python3
"""Write the benchmark's output references from the program as it is.

Run this only at a commit whose outputs are accepted as correct; the
benchmark then counts every output that differs as a failed operation.

    python3 perfbench/make_references.py                  # every workload
    python3 perfbench/make_references.py ladder-extract   # some of them

For ``corpus-evaluate`` the reference is the ``plgg evaluate --json``
payload without its ``*_seconds`` fields.  For a generated workload it is,
per pool task, the SHA-256 of the output JSON plus the landmark graph that
``plgg extract`` gives for the task, against which F1 is scored; those
files are gzipped to keep them small.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import plgg.pddl as pddl  # noqa: E402

from taskgen import generate_task  # noqa: E402
from workloads import (CORPUS, POOL, WORKLOADS, Workload, digest, evaluate_argv,  # noqa: E402
                       extract_op, graph_payload, instantiate_op, learned_plog_text,
                       reference_path, run_evaluate, selection, task_name)


def ladder_references(workload: Workload) -> dict:
    domain = pddl.parse_domain((CORPUS / "domain.pddl").read_text())
    plog_text = learned_plog_text(domain) if workload.kind == "instantiate" else None
    tasks = {}
    for blocks, index in selection(workload, None):
        text = generate_task(blocks, index, workload.density)
        extracted = extract_op(domain, text)()
        output = (instantiate_op(domain, plog_text, text)() if plog_text is not None
                  else extracted)
        tasks[task_name(workload, blocks, index)] = {
            "digest": digest(output[0]), **graph_payload(extracted[1], extracted[2])}
    return {"workload": workload.name, "density": workload.density,
            "rungs": list(workload.rungs), "pool": POOL, "tasks": tasks}


def encode(workload: Workload, payload: dict) -> bytes:
    """Indented JSON for the corpus golden output; gzipped JSON, with a
    fixed timestamp, for a generated workload."""
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if workload.kind == "evaluate":
        return text.encode()
    return gzip.compress(text.encode(), mtime=0)


def main(names: list[str]) -> None:
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        if workload.kind == "evaluate":
            payload = run_evaluate(evaluate_argv())[0]
        else:
            payload = ladder_references(workload)
        path = reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(encode(workload, payload))
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
