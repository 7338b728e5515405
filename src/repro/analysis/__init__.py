"""Static phase-transition analysis (Section II-A of the paper).

The pipeline:

1. :mod:`features` / :mod:`reuse_distance` — place every basic block in a
   two-dimensional space: an instruction-type combination score and a
   rough cache-behaviour estimate based on reuse distances (Beyls &
   D'Hollander), exactly the proof-of-concept typer of Section II-A3.
2. :mod:`kmeans` / :mod:`block_typing` — group blocks with k-means
   (MacQueen) into phase types Π; alternatively type blocks from an
   execution profile per core type (the paper's evaluation setup), and
   optionally inject controlled clustering error (Figure 7).
3. :mod:`annotate` — attributed CFGs ``B̄ ⊆ B × Π``, and the memo of
   the analyses below that every technique of a program shares.
4. :mod:`interval_summary` — dominant type of each interval by weighted
   depth-first traversal ignoring backward edges.
5. :mod:`loop_summary` — Algorithm 1: inter-procedural, bottom-up over
   the call graph, nesting-weighted breadth-first traversal, type
   strength σ, and the nested/disjoint-loop elimination rules.
6. :mod:`transitions` — phase-transition points for the basic-block,
   interval, and loop techniques, with minimum-size and lookahead
   filtering.
"""

from repro.analysis.features import BlockFeatures, block_features, COMPUTE_WEIGHTS
from repro.analysis.reuse_distance import (
    NominalCache,
    block_reuse_profile,
    miss_probability,
)
from repro.analysis.kmeans import KMeansResult, kmeans
from repro.analysis.liveness import LivenessResult, compute_liveness, def_use
from repro.analysis.block_typing import (
    BlockTyping,
    StaticBlockTyper,
    ProfileBlockTyper,
    inject_clustering_error,
)
from repro.analysis.annotate import AttributedCFG, AttributedProgram, annotate_program
from repro.analysis.interval_summary import IntervalSummary, summarize_intervals
from repro.analysis.loop_summary import (
    LoopSummary,
    ProcedureSummary,
    summarize_loops,
)
from repro.analysis.transitions import (
    TransitionPoint,
    basic_block_transitions,
    interval_transitions,
    loop_transitions,
)

__all__ = [
    "BlockFeatures",
    "block_features",
    "COMPUTE_WEIGHTS",
    "NominalCache",
    "block_reuse_profile",
    "miss_probability",
    "KMeansResult",
    "kmeans",
    "LivenessResult",
    "compute_liveness",
    "def_use",
    "BlockTyping",
    "StaticBlockTyper",
    "ProfileBlockTyper",
    "inject_clustering_error",
    "AttributedCFG",
    "AttributedProgram",
    "annotate_program",
    "IntervalSummary",
    "summarize_intervals",
    "LoopSummary",
    "ProcedureSummary",
    "summarize_loops",
    "TransitionPoint",
    "basic_block_transitions",
    "interval_transitions",
    "loop_transitions",
]
