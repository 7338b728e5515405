"""Experiment drivers: one module per table/figure of the paper.

Every module exposes ``run(config) -> <result dataclass>`` and
``format_result(result) -> str`` printing the same rows/series the paper
reports.  ``benchmarks/`` wraps these with pytest-benchmark; the modules
are also directly runnable for full-scale reproduction.

==========  ==============================================================
module       reproduces
==========  ==============================================================
fig3         Figure 3 — space overhead box plots per technique variant
fig4         Figure 4 — time overhead via switch-to-all-cores marks
table1       Table 1 — switches and isolated runtime per benchmark
fig5         Figure 5 — average cycles per core switch (log scale)
fig6         Figure 6 — throughput vs IPC threshold δ
fig7         Figure 7 — throughput vs injected clustering error
table2       Table 2 — fairness vs the stock scheduler, 18 variants
fig8         Figure 8 — speedup vs max-stretch trade-off scatter
extras       §III ATOM comparison, §IV-C2 lookahead sweep, §IV-C4
             min-size sweep, §VII 3-core setup, §II-A3 typing accuracy
==========  ==============================================================
"""

from repro.experiments.broker import Broker, task_key, worker_loop
from repro.experiments.config import (
    TABLE2_VARIANTS,
    ExperimentConfig,
)
from repro.experiments.runner import (
    TechniqueOutcome,
    run_baseline,
    run_technique,
)

__all__ = [
    "TABLE2_VARIANTS",
    "Broker",
    "ExperimentConfig",
    "TechniqueOutcome",
    "run_baseline",
    "run_technique",
    "task_key",
    "worker_loop",
]
