"""The paper's published results, for comparison with the reproduction.

:mod:`repro.analysis.paper_reference` transcribes the throughput and
expert-switch values of the paper's Figures 13–16 and the speedup bands
it claims per device, so reproduced
:class:`~repro.simulation.results.SimulationResult` rows can be checked
against them.
"""

from repro.analysis.paper_reference import (
    PAPER_FIGURE13_THROUGHPUT,
    PAPER_FIGURE14_SWITCHES,
    PAPER_FIGURE15_THROUGHPUT,
    PAPER_FIGURE16_SWITCHES,
    paper_speedup_band,
)

__all__ = [
    "PAPER_FIGURE13_THROUGHPUT",
    "PAPER_FIGURE14_SWITCHES",
    "PAPER_FIGURE15_THROUGHPUT",
    "PAPER_FIGURE16_SWITCHES",
    "paper_speedup_band",
]
