"""Assigning phase types Π to basic blocks.

Two typers, both from the paper:

* :class:`StaticBlockTyper` — the proof-of-concept analysis of Section
  II-A3: place each block in the 2-D (instruction mix × cache estimate)
  space and group with k-means.
* :class:`ProfileBlockTyper` — the evaluation-grade typer of Section
  IV-A1: "to determine basic block types for our static analysis with
  little to no error, we use an execution profile from each core.  Using
  the observed IPC, we assign types to basic blocks.  The difference in
  IPC between the core types is compared to an IPC threshold."

Plus :func:`inject_clustering_error`, the Figure 7 mechanism: "after
determining the clustering of blocks, a percentage of blocks were
randomly selected and placed into the opposite cluster."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AnalysisError
from repro.program.basic_block import BasicBlock, NodeKind
from repro.program.cfg import CFG, cached_cfg
from repro.program.module import Program
from repro.analysis.features import block_features
from repro.analysis.kmeans import kmeans
from repro.analysis.reuse_distance import DEFAULT_NOMINAL_CACHE, NominalCache


@dataclass
class BlockTyping:
    """A phase-type assignment for the blocks of one program.

    Attributes:
        types: map from block uid (``"proc#index"``) to type id in
            ``range(num_types)``.  Blocks absent from the map are
            untyped (too small, special nodes, unknown targets).
        num_types: |Π|.
    """

    types: dict[str, int]
    num_types: int

    def type_of(self, block: BasicBlock) -> Optional[int]:
        """The type of *block*, or ``None`` if untyped."""
        return self.types.get(block.uid)

    def __len__(self) -> int:
        return len(self.types)


def _typable_blocks(program: Program, cfgs: dict[str, CFG]) -> list[BasicBlock]:
    """Ordinary blocks eligible for typing, program-wide."""
    blocks = []
    for proc in program:
        for block in cfgs[proc.name]:
            if block.kind is NodeKind.BLOCK and len(block) > 0:
                blocks.append(block)
    return blocks


def build_all_cfgs(program: Program) -> dict[str, CFG]:
    """Build (or fetch) the CFG of every procedure."""
    return {proc.name: cached_cfg(proc) for proc in program}


@dataclass
class StaticBlockTyper:
    """Section II-A3 static typer: 2-D features + k-means.

    Attributes:
        num_types: number of phase types (the paper uses one per core
            type; two for the evaluation machine).
        seed: k-means++ seed, for reproducibility.
        cache: nominal cache for the reuse-distance estimate.
    """

    num_types: int = 2
    seed: int = 0
    cache: NominalCache = field(default_factory=lambda: DEFAULT_NOMINAL_CACHE)

    def type_blocks(
        self, program: Program, cfgs: Optional[dict[str, CFG]] = None
    ) -> BlockTyping:
        """Cluster all ordinary blocks of *program* into phase types."""
        cfgs = cfgs or build_all_cfgs(program)
        blocks = _typable_blocks(program, cfgs)
        if not blocks:
            raise AnalysisError(f"program {program.name!r} has no typable blocks")

        points = [block_features(b, program, self.cache).as_tuple() for b in blocks]
        k = min(self.num_types, len(points))
        result = kmeans(points, k, seed=self.seed)

        # Normalise cluster ids so type 0 is the most memory-bound
        # cluster (highest centroid along the stall axis).  This gives
        # the ids a stable meaning across programs, which the
        # error-injection and reporting code relies on.
        order = sorted(range(k), key=lambda c: -result.centroids[c][1])
        remap = {old: new for new, old in enumerate(order)}
        types = {b.uid: remap[label] for b, label in zip(blocks, result.labels)}
        return BlockTyping(types, self.num_types)


@dataclass
class ProfileBlockTyper:
    """Section IV-A1 profile typer: per-core-type IPC deltas.

    Runs every block through the machine's cost model once per core type
    (the simulator analogue of profiling on each core) and compares the
    IPC difference against ``ipc_threshold``: blocks whose IPC improves
    on a slower core type by more than the threshold are memory-bound
    (type 0); the rest are compute-bound (type 1).

    Attributes:
        machine: the AMP description (only its core *types* are used).
        ipc_threshold: minimum IPC delta to classify as memory-bound.
    """

    machine: "object"  # repro.sim.machine.MachineConfig; lazy to avoid cycle.
    ipc_threshold: float = 0.1

    def type_blocks(
        self, program: Program, cfgs: Optional[dict[str, CFG]] = None
    ) -> BlockTyping:
        from repro.sim.cost_model import CostModel  # Local: avoid import cycle.

        cfgs = cfgs or build_all_cfgs(program)
        blocks = _typable_blocks(program, cfgs)
        if not blocks:
            raise AnalysisError(f"program {program.name!r} has no typable blocks")

        model = CostModel(self.machine)
        core_types = self.machine.core_types()
        if len(core_types) < 2:
            raise AnalysisError("profile typing needs at least two core types")
        # Order core types fastest first.
        core_types = sorted(core_types, key=lambda ct: -ct.freq_ghz)
        fast, slow = core_types[0], core_types[-1]

        types: dict[str, int] = {}
        for block in blocks:
            ipc_fast = model.block_ipc(block, fast, program)
            ipc_slow = model.block_ipc(block, slow, program)
            memory_bound = (ipc_slow - ipc_fast) > self.ipc_threshold
            types[block.uid] = 0 if memory_bound else 1
        return BlockTyping(types, 2)


def inject_clustering_error(
    typing: BlockTyping, error_fraction: float, seed: int = 0
) -> BlockTyping:
    """Return a copy of *typing* with a fraction of blocks misclassified.

    Figure 7's protocol: randomly select ``error_fraction`` of the typed
    blocks and move each to the opposite cluster (for two types) or to a
    uniformly random *different* cluster otherwise.

    Raises:
        AnalysisError: if *error_fraction* is outside [0, 1].
    """
    if not 0.0 <= error_fraction <= 1.0:
        raise AnalysisError(f"error fraction {error_fraction} outside [0, 1]")
    rng = random.Random(seed)
    uids = sorted(typing.types)
    flip_count = round(len(uids) * error_fraction)
    flipped = set(rng.sample(uids, flip_count)) if flip_count else set()

    new_types = dict(typing.types)
    for uid in flipped:
        current = new_types[uid]
        if typing.num_types == 2:
            new_types[uid] = 1 - current
        else:
            choices = [t for t in range(typing.num_types) if t != current]
            new_types[uid] = rng.choice(choices)
    return BlockTyping(new_types, typing.num_types)
