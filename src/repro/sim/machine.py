"""Machine configurations.

:func:`core2quad_amp` reproduces the paper's evaluation machine: "an
Intel Core 2 Quad processor with a clock frequency of 2.4GHz and two
cores under-clocked to 1.6GHz.  There are two L2 caches shared by two
cores each.  The cores running at the same frequency share an L2 cache."
:func:`three_core_amp` is the Section VII follow-up setup (2 fast,
1 slow).  Arbitrary configurations can be built directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import SimulationError
from repro.sim.core import Core, CoreType

#: The paper's fast core type (stock Core 2 Quad clocks).
FAST = CoreType("fast", freq_ghz=2.4, l1_kb=32, l2_kb=4096)

#: The paper's slow (underclocked) core type.  Underclocking leaves the
#: cache sizes untouched; only the frequency differs.
SLOW = CoreType("slow", freq_ghz=1.6, l1_kb=32, l2_kb=4096)


@dataclass(frozen=True)
class MachineConfig:
    """An AMP: an ordered tuple of cores.

    Attributes:
        name: display name.
        cores: the physical cores, ``cores[i].cid == i``.
    """

    name: str
    cores: tuple

    def __post_init__(self) -> None:
        if not self.cores:
            raise SimulationError("machine has no cores")
        for i, core in enumerate(self.cores):
            if core.cid != i:
                raise SimulationError(
                    f"core ids must be dense: cores[{i}].cid == {core.cid}"
                )

    def __len__(self) -> int:
        return len(self.cores)

    def __getstate__(self) -> dict:
        # Fields only: a machine pickles to the same bytes (and so the
        # same harness task keys) whichever cached views were computed.
        return {"name": self.name, "cores": self.cores}

    def core_types(self) -> tuple[CoreType, ...]:
        """Distinct core types, fastest first."""
        return self._core_types

    # The machine is immutable, so both derived views below are computed
    # once per machine.  cached_property writes the instance dict, which
    # a frozen dataclass allows; equality, hashing and pickling see the
    # fields alone.

    @cached_property
    def _core_types(self) -> tuple[CoreType, ...]:
        seen = {}
        for core in self.cores:
            seen.setdefault(core.ctype.name, core.ctype)
        return tuple(sorted(seen.values(), key=lambda ct: (-ct.freq_ghz, ct.name)))

    def cores_of_type(self, ctype: CoreType) -> list[int]:
        """Core ids of all cores of *ctype*."""
        return [c.cid for c in self.cores if c.ctype.name == ctype.name]

    def affinity_of_type(self, ctype: CoreType) -> frozenset:
        """Affinity mask selecting every core of *ctype*."""
        return frozenset(self.cores_of_type(ctype))

    @cached_property
    def all_cores_mask(self) -> frozenset:
        return frozenset(c.cid for c in self.cores)

    def l2_neighbors(self, cid: int) -> list[int]:
        """Other cores sharing the L2 of core *cid*."""
        group = self.cores[cid].l2_group
        return [c.cid for c in self.cores if c.l2_group == group and c.cid != cid]

    def is_asymmetric(self) -> bool:
        return len(self.core_types()) > 1

    def __str__(self) -> str:
        return f"{self.name}[{', '.join(str(c.ctype) for c in self.cores)}]"


def core2quad_amp() -> MachineConfig:
    """The paper's 4-core evaluation machine: 2 fast + 2 slow, paired L2s."""
    return MachineConfig(
        "core2quad-amp",
        (
            Core(0, FAST, l2_group=0),
            Core(1, FAST, l2_group=0),
            Core(2, SLOW, l2_group=1),
            Core(3, SLOW, l2_group=1),
        ),
    )


def three_core_amp() -> MachineConfig:
    """Section VII's additional setup: 2 fast cores and 1 slow core."""
    return MachineConfig(
        "three-core-amp",
        (
            Core(0, FAST, l2_group=0),
            Core(1, FAST, l2_group=0),
            Core(2, SLOW, l2_group=1),
        ),
    )


def many_core_amp(fast_cores: int = 4, slow_cores: int = 4) -> MachineConfig:
    """A larger AMP for the Section VI-C scalability discussion.

    The paper notes that grouping cores into types reduces many-core
    tuning to the multicore problem; the runtime here already explores
    core *types*, so its monitoring cost is independent of core count.
    """
    cores = []
    for i in range(fast_cores):
        cores.append(Core(i, FAST, l2_group=i // 2))
    for j in range(slow_cores):
        cid = fast_cores + j
        cores.append(Core(cid, SLOW, l2_group=cid // 2))
    return MachineConfig(f"many-core-{fast_cores}f{slow_cores}s", tuple(cores))


def symmetric_machine(n_cores: int = 4, freq_ghz: float = 2.4) -> MachineConfig:
    """A frequency-symmetric machine, for control experiments."""
    ctype = CoreType("uniform", freq_ghz=freq_ghz)
    cores = tuple(Core(i, ctype, l2_group=i // 2) for i in range(n_cores))
    return MachineConfig(f"symmetric-{n_cores}", cores)
