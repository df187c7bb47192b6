"""The experiment harness: one module per paper result (see DESIGN.md §5).

Each module exposes ``run(quick=True, seed=0)`` returning a result object
with a formatted :class:`~repro.analysis.report.ExperimentTable` plus the
key fitted quantities its claim checks; the claims are declared once, in
:data:`repro.experiments.runner.CLAIMS`.  ``quick=True`` keeps each
experiment under ~a minute; ``quick=False`` is the full sweep that
``python -m repro report --full`` writes to EXPERIMENTS.md.
"""

from . import (
    e01_parallel_grover,
    e02_parallel_minimum,
    e03_parallel_ed,
    e04_mean_estimation,
    e05_state_transfer,
    e06_framework,
    e07_meeting,
    e08_element_distinctness,
    e09_deutsch_jozsa,
    e10_diameter,
    e11_avg_eccentricity,
    e12_cycles,
    e13_girth,
    e14_amplitude,
    e15_lowerbounds,
    e16_even_cycles,
    e17_triangles,
    e18_boosting,
    e19_resilience,
    e20_diameter,
    e21_apsp,
    e22_scenarios,
    e23_sketches,
)

ALL_EXPERIMENTS = {
    "E1": e01_parallel_grover,
    "E2": e02_parallel_minimum,
    "E3": e03_parallel_ed,
    "E4": e04_mean_estimation,
    "E5": e05_state_transfer,
    "E6": e06_framework,
    "E7": e07_meeting,
    "E8": e08_element_distinctness,
    "E9": e09_deutsch_jozsa,
    "E10": e10_diameter,
    "E11": e11_avg_eccentricity,
    "E12": e12_cycles,
    "E13": e13_girth,
    "E14": e14_amplitude,
    "E15": e15_lowerbounds,
    "E16": e16_even_cycles,
    "E17": e17_triangles,
    "E18": e18_boosting,
    "E19": e19_resilience,
    "E20": e20_diameter,
    "E21": e21_apsp,
    "E22": e22_scenarios,
    "E23": e23_sketches,
}

# Imported after ALL_EXPERIMENTS exists: runner reads the registry at
# import time, so the order here is load-bearing.
from .runner import (  # noqa: E402
    RunRequest,
    Verdict,
    run_experiment,
    run_instrumented,
    verify_all,
    verify_experiment,
    verify_sweep,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "RunRequest",
    "Verdict",
    "run_experiment",
    "run_instrumented",
    "verify_all",
    "verify_experiment",
    "verify_sweep",
] + [m.__name__.split(".")[-1] for m in ALL_EXPERIMENTS.values()]
