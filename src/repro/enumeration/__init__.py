"""Custom-instruction identification (enumeration) substrate."""

from repro.enumeration.disconnected import components_independent, pair_disconnected
from repro.enumeration.library import build_candidate_library, hot_block_indices
from repro.enumeration.mimo import enumerate_connected, enumerate_exhaustive
from repro.enumeration.miso import maximal_misos
from repro.enumeration.patterns import Candidate, CandidateLibrary, make_candidate

__all__ = [
    "components_independent",
    "pair_disconnected",
    "build_candidate_library",
    "hot_block_indices",
    "enumerate_connected",
    "enumerate_exhaustive",
    "maximal_misos",
    "Candidate",
    "CandidateLibrary",
    "make_candidate",
]
