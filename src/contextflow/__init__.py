"""Task-state alignment layer over a deterministic graph world.

Stage contracts record planner commitments; an asynchronous monitor folds
observations and the workflow into evidence packets (it reads neither
memory nor executor status); the planner answers each packet, with the
executor status and remembered evidence, by exactly one scoped update
(continue, refine, transfer, promote, repair); and every consultation
lands on an auditable alignment-board trace.
"""

from .scenario import golden_scenario_path, load_scenario, load_suite, stress_suite_dir
from .harness import RunConfig, run_episode, run_suite

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "golden_scenario_path",
    "load_scenario",
    "load_suite",
    "run_episode",
    "run_suite",
    "stress_suite_dir",
    "__version__",
]
