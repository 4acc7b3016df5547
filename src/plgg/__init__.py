"""Probabilistic landmark graphs for classical planning tasks.

The pipeline: ground PDDL tasks, extract per-task landmark generation
graphs, learn a probabilistic lifted ordering graph from several of them,
and instantiate it on unseen tasks of the same domain.
"""

from .pddl import (Atom, Domain, GroundAction, GroundTask, ParseError, Predicate,
                   Problem, ground_task, parse_domain, parse_problem)
from .lgg import (LGG, LggFormatError, UnsolvableTaskError, extract_lgg,
                  is_landmark_oracle, oracle_landmarks, read_lgg, write_lgg)
from .plog import (PLog, VocabularyError, learn_plog, lift_atom, lift_edge,
                   read_plog, write_plog)
from .instantiate import (PLgg, PlggContent, VarConstraintStore, combine,
                          extract_result, generate_plgg_goal, generate_plgg_init,
                          instantiate_task, read_plgg, write_plgg)
from .metrics import (MetricReport, alpha_prf, compare, likelihood_atom,
                      likelihood_edge)
from .experiment import ExperimentConfig, run_experiment

__all__ = [
    "Atom", "Domain", "GroundAction", "GroundTask", "ParseError", "Predicate",
    "Problem", "ground_task", "parse_domain", "parse_problem",
    "LGG", "LggFormatError", "UnsolvableTaskError", "extract_lgg",
    "is_landmark_oracle", "oracle_landmarks", "read_lgg", "write_lgg",
    "PLog", "VocabularyError", "learn_plog", "lift_atom", "lift_edge",
    "read_plog", "write_plog",
    "PLgg", "PlggContent", "VarConstraintStore", "combine", "extract_result",
    "generate_plgg_goal", "generate_plgg_init", "instantiate_task", "read_plgg",
    "write_plgg",
    "MetricReport", "alpha_prf", "compare", "likelihood_atom", "likelihood_edge",
    "ExperimentConfig", "run_experiment",
]

__version__ = "0.1.0"
