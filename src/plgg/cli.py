"""Command-line front end.

Four subcommands cover the pipeline: `extract` turns PDDL tasks into
landmark graph files, `learn` merges those into a probabilistic lifted
ordering graph, `instantiate` applies a learned graph to a new task, and
`evaluate` runs the full split/score protocol.  Exit codes: 0 on success,
1 for usage or configuration errors, 2 for task-level failures (unreadable
input, bad PDDL, unsolvable task, vocabulary mismatch).  Commands raise
their errors, a `ConfigError` for bad options, and `main` alone prints each
as one `plgg <command>: error: ...` line; argparse's own usage errors also
exit 1.  Log records at or above `--log-level` go to standard error as
`plgg: warning: ...` lines.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

from .experiment import (ConfigError, ExperimentConfig, check_distinct_stems, check_ranges,
                         render_oracle_report, render_score_report, render_timing_report,
                         result_to_json, run_experiment)
from .instantiate import (extract_result, instantiate_task, plgg_to_dot, plgg_to_json,
                          write_plgg)
from .lgg import extract_lgg, read_lgg, write_lgg
from .pddl import PddlError, ground_task, parse_domain, parse_problem, read_file
from .plog import VocabularyError, learn_plog, plog_to_dot, read_plog, write_plog

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TASK = 2

LOG_LEVELS = ("debug", "info", "warning", "error")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this front end reserves 2 for
    task failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _StderrHandler(logging.Handler):
    """Writes each record as one `plgg: level: message` line to whatever
    `sys.stderr` is when the record arrives."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            print(f"plgg: {record.levelname.lower()}: {record.getMessage()}", file=sys.stderr)
        except Exception:
            self.handleError(record)


_HANDLER = _StderrHandler()


def _configure_logging(level: str) -> None:
    """Let the `plgg` loggers' records at `level` and above through, to one
    stderr handler however many times this runs in a process."""
    logger = logging.getLogger("plgg")
    logger.setLevel(level.upper())
    if _HANDLER not in logger.handlers:
        logger.addHandler(_HANDLER)


def cmd_extract(args) -> int:
    check_distinct_stems(args.problems)
    domain = read_file(args.domain, parse_domain)
    # nothing is written until every task has been extracted
    lggs = []
    for path in args.problems:
        task = ground_task(domain, read_file(path, partial(parse_problem, domain=domain)))
        lggs.append((Path(args.out) / f"{Path(path).stem}.lgg.json", extract_lgg(task)))
    Path(args.out).mkdir(parents=True, exist_ok=True)
    for target, lgg in lggs:
        write_lgg(lgg, target)
        print(f"wrote {target}")
    return EXIT_OK


def _mu_histogram(probs) -> str:
    """Counts per right-closed fifth of (0, 1]."""
    buckets = Counter()
    for mu in probs:
        buckets[min(max(math.ceil(mu * 5) - 1, 0), 4)] += 1
    parts = [f"({i / 5:.1f},{(i + 1) / 5:.1f}]:{buckets[i]}" for i in range(5) if buckets[i]]
    return " ".join(parts) if parts else "empty"


def _dot_path(args) -> Path | None:
    """Where `--dot` writes its Graphviz file: beside `--out`, with the
    suffix `.dot`, which must not make it `--out` itself."""
    if not args.dot:
        return None
    if not args.out:
        raise ConfigError("--dot needs --out")
    dot_path = Path(args.out).with_suffix(".dot")
    if dot_path == Path(args.out):
        raise ConfigError(f"--dot would overwrite --out {args.out}; give --out another suffix")
    return dot_path


def _check_distinct_files(paths: list[str]) -> None:
    """Each LGG counts once in learning, so two arguments that name one
    file raise `ConfigError`; distinct files may share a stem."""
    seen: dict[Path, str] = {}
    for path in paths:
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ConfigError(f"{path} names the same file as {seen[resolved]}; "
                              "each landmark graph file counts once")
        seen[resolved] = path


def cmd_learn(args) -> int:
    dot_path = _dot_path(args)
    _check_distinct_files(args.lggs)
    lggs = [read_lgg(path) for path in args.lggs]
    plog = learn_plog(lggs, domain=args.domain or "")
    write_plog(plog, args.out)
    print(f"wrote {args.out}")
    print(f"vertices: {len(plog.vertices)}  edges: {len(plog.probs)}  "
          f"mu histogram: {_mu_histogram(plog.probs.values())}")
    if dot_path:
        dot_path.write_text(plog_to_dot(plog))
        print(f"wrote {dot_path}")
    return EXIT_OK


def _check_vocabulary(plog, domain) -> None:
    if plog.domain and plog.domain != domain.name:
        raise VocabularyError(
            f"graph was learned for domain {plog.domain!r}, not {domain.name!r}")
    for atom in sorted(plog.atoms):
        pred = domain.predicates.get(atom.pred)
        if pred is None or len(pred.param_types) != atom.arity:
            raise VocabularyError(
                f"learned atom {atom} does not match the domain's predicates")


def cmd_instantiate(args) -> int:
    dot_path = _dot_path(args)
    check_ranges(args.top_n, args.threshold)
    plog = read_plog(args.plog)
    domain = read_file(args.domain, parse_domain)
    _check_vocabulary(plog, domain)
    task = ground_task(domain, read_file(args.problem, partial(parse_problem, domain=domain)))
    start = time.perf_counter()
    plgg = instantiate_task(plog, task, top_n=args.top_n)
    seconds = time.perf_counter() - start
    content = extract_result(plgg, threshold=args.threshold)
    # without --out, standard output holds the p-LGG and nothing else
    print(f"instantiated in {seconds * 1000:.0f} ms: "
          f"{len(content.landmarks_grounded)} grounded landmarks, "
          f"{len(content.landmarks_lifted)} lifted, "
          f"{len(content.orderings)} orderings at threshold {args.threshold}",
          file=sys.stdout if args.out else sys.stderr)
    if args.out:
        write_plgg(plgg, args.out)
        print(f"wrote {args.out}")
        if dot_path:
            dot_path.write_text(plgg_to_dot(plgg))
            print(f"wrote {dot_path}")
    else:
        print(plgg_to_json(plgg), end="")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = ExperimentConfig(
        domain_path=args.domain, problem_paths=list(args.problems),
        train_count=args.train, test_count=args.test,
        repetitions=args.reps, seed=args.seed,
        top_n=args.top_n, threshold=args.threshold,
        reference_dir=args.reference_dir,
        oracle_baseline=not args.no_oracle)
    report = run_experiment(config)  # validates the config before it reads a file
    text = result_to_json(report) if args.json or args.out else None
    if args.json:
        print(text, end="")
    else:
        print(render_score_report(report))
        print(render_oracle_report(report))
        print(render_timing_report(report), end="")
    if args.out:
        Path(args.out).write_text(text)
        # with --json, standard output holds the report and nothing else
        print(f"wrote {args.out}", file=sys.stderr if args.json else sys.stdout)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="plgg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="least severe log record to print (default: warning)")

    p = sub.add_parser("extract", parents=[common], help="extract landmark graphs from tasks")
    p.add_argument("domain")
    p.add_argument("problems", nargs="+")
    p.add_argument("--out", required=True, help="output directory for .lgg.json files")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("learn", parents=[common],
                       help="learn a lifted ordering graph from landmark graphs")
    p.add_argument("lggs", nargs="+", help="landmark graph JSON files")
    p.add_argument("--out", required=True, help="output p-LOG JSON file")
    p.add_argument("--domain", default=None, help="domain name stamped into the output")
    p.add_argument("--dot", action="store_true", help="also write a Graphviz file")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("instantiate", parents=[common],
                       help="instantiate a learned graph for one task")
    p.add_argument("plog")
    p.add_argument("domain")
    p.add_argument("problem")
    p.add_argument("--top-n", type=int, default=1)
    p.add_argument("--threshold", type=float, default=0.0,
                   help="least probability the summary counts; the p-LGG keeps every edge")
    p.add_argument("--out", default=None, help="output p-LGG JSON file")
    p.add_argument("--dot", action="store_true", help="also write a Graphviz file")
    p.set_defaults(func=cmd_instantiate)

    p = sub.add_parser("evaluate", parents=[common], help="run the train/test scoring protocol")
    p.add_argument("domain")
    p.add_argument("problems", nargs="+")
    p.add_argument("--train", type=int, default=4)
    p.add_argument("--test", type=int, default=10)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-n", type=int, default=1)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--reference-dir", default=None,
                   help="directory of pre-extracted .lgg.json reference graphs")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the oracle recall baseline, one landmark-label pass per test task")
    p.add_argument("--json", action="store_true", help="print the full JSON report")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    try:
        return args.func(args)
    except (ConfigError, PddlError, VocabularyError, OSError) as exc:
        print(f"plgg {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_TASK


if __name__ == "__main__":
    sys.exit(main())
