"""Static description of a hybrid memory system.

A :class:`MemorySystemSpec` lists every independently addressable memory
*bank* (an HBM pseudo-channel, a DDR channel, or an on-chip BRAM/URAM
region) together with its capacity.  :func:`u280_memory_system` builds the
Xilinx Alveo U280 configuration the paper evaluates on: 32 HBM channels x
256 MB, 2 DDR4 channels x 16 GB, plus a few MB of on-chip memory.

The planner (``repro.core.planner``) treats HBM simply as additional DRAM
channels, exactly as section 3.4.2 prescribes ("the algorithm simply regards
HBM as additional memory channels"), so the same spec type also describes
HBM-less FPGAs for the generalisation experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.memory.axi import AxiConfig

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


class BankKind(enum.Enum):
    """The three classes of memory MicroRec distributes tables over."""

    HBM = "hbm"
    DDR = "ddr"
    ONCHIP = "onchip"  # BRAM/URAM; ~1/3 the access latency of DRAM (sec 3.2.2)

    @property
    def is_dram(self) -> bool:
        return self in (BankKind.HBM, BankKind.DDR)


@dataclass(frozen=True)
class BankSpec:
    """One independently accessible memory bank.

    Banks of different kinds can be accessed concurrently; accesses to the
    *same* bank serialise.  That serialisation is what creates the "rounds
    of DRAM access" the paper's Table 3 counts.
    """

    bank_id: int
    kind: BankKind
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(
                f"bank {self.bank_id}: capacity must be positive, "
                f"got {self.capacity_bytes}"
            )


@dataclass(frozen=True)
class MemorySystemSpec:
    """A collection of banks plus the AXI interface configuration."""

    banks: Sequence[BankSpec]
    axi: AxiConfig = field(default_factory=AxiConfig)
    name: str = "custom"

    def __post_init__(self) -> None:
        ids = [b.bank_id for b in self.banks]
        if len(set(ids)) != len(ids):
            raise ValueError("bank_id values must be unique")
        if not self.banks:
            raise ValueError("memory system needs at least one bank")

    def banks_of(self, *kinds: BankKind) -> list[BankSpec]:
        return [b for b in self.banks if b.kind in kinds]

    @property
    def dram_banks(self) -> list[BankSpec]:
        return [b for b in self.banks if b.kind.is_dram]

    @property
    def onchip_banks(self) -> list[BankSpec]:
        return self.banks_of(BankKind.ONCHIP)

    @property
    def num_dram_channels(self) -> int:
        return len(self.dram_banks)

    @property
    def dram_capacity_bytes(self) -> int:
        return sum(b.capacity_bytes for b in self.dram_banks)

    @property
    def onchip_capacity_bytes(self) -> int:
        return sum(b.capacity_bytes for b in self.onchip_banks)

    def bank(self, bank_id: int) -> BankSpec:
        for b in self.banks:
            if b.bank_id == bank_id:
                return b
        raise KeyError(f"no bank with id {bank_id}")

    def __iter__(self) -> Iterator[BankSpec]:
        return iter(self.banks)


def u280_memory_system(
    hbm_channels: int = 32,
    hbm_bank_bytes: int = 256 * MIB,
    ddr_channels: int = 2,
    ddr_bank_bytes: int = 16 * GIB,
    onchip_banks: int = 8,
    onchip_bank_bytes: int = 42 * KIB,
    axi: AxiConfig | None = None,
) -> MemorySystemSpec:
    """Build the Alveo U280 memory system used throughout the paper.

    Defaults follow section 5.1: 8 GB HBM2 over 32 pseudo-channels and 32 GB
    DDR4 over 2 channels.  On-chip memory is modelled as a small number of
    independently addressable BRAM regions dedicated to embedding caching
    (heuristic rule 4); the default of 8 x 42 KiB is a deliberately tight
    budget because the U280's on-chip memory is almost entirely consumed by
    GEMM PEs, weight buffers, and the 34 channel FIFOs (appendix, Table 6 —
    78-85 % BRAM utilisation), matching the paper's behaviour of caching
    only a handful of tiny tables on chip.

    Pass ``hbm_channels=0`` to model an HBM-less FPGA — the planner
    generalises unchanged, per section 3.4.2.  A negative count raises
    ``ValueError`` naming the argument.
    """
    for arg, count in (("hbm_channels", hbm_channels),
                       ("ddr_channels", ddr_channels),
                       ("onchip_banks", onchip_banks)):
        if count < 0:
            raise ValueError(f"{arg} must be >= 0, got {count}")
    banks: list[BankSpec] = []
    next_id = 0
    for _ in range(hbm_channels):
        banks.append(BankSpec(next_id, BankKind.HBM, hbm_bank_bytes))
        next_id += 1
    for _ in range(ddr_channels):
        banks.append(BankSpec(next_id, BankKind.DDR, ddr_bank_bytes))
        next_id += 1
    for _ in range(onchip_banks):
        banks.append(BankSpec(next_id, BankKind.ONCHIP, onchip_bank_bytes))
        next_id += 1
    return MemorySystemSpec(
        banks=tuple(banks),
        axi=axi if axi is not None else AxiConfig(),
        name="alveo-u280",
    )
