"""Set-associative cache models and the two-level hierarchy.

Latency-oriented model matching the paper's Table 2: a 64 KB 4-way L1I,
a 32 KB 2-way L1D, a unified 1 MB 2-way L2, and flat 100-cycle memory.
Each access returns the total latency and updates LRU/fill state.
Bandwidth is modeled at the port level by the pipeline (2 D-cache
ports), not here; MSHR occupancy is not modeled, which matches the
original SimpleScalar-derived infrastructure's level of detail.
"""

from __future__ import annotations

from .config import CacheConfig


class Cache:
    """One set-associative, write-allocate, LRU cache level."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        # Each set is an ordered list of tags, most recent last.
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> (
            self.config.num_sets.bit_length() - 1)

    def access(self, addr: int) -> bool:
        """Touch *addr*; fill on miss.  Returns True on a hit."""
        set_index, tag = self._locate(addr)
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(tag)
        if len(ways) > self.config.assoc:
            ways.pop(0)
        return False

    def probe(self, addr: int) -> bool:
        """Check for *addr* without updating any state."""
        set_index, tag = self._locate(addr)
        return tag in self._sets[set_index]

    @property
    def line_shift(self) -> int:
        """log2 of the line size: ``addr >> line_shift`` is the line."""
        return self._line_shift

    def line_address(self, addr: int) -> int:
        """The line-aligned address containing *addr*."""
        return (addr >> self._line_shift) << self._line_shift

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class MemoryHierarchy:
    """L1I + L1D backed by a unified L2 and flat main memory."""

    def __init__(self, il1: CacheConfig, dl1: CacheConfig, l2: CacheConfig,
                 memory_latency: int):
        self.il1 = Cache(il1, "il1")
        self.dl1 = Cache(dl1, "dl1")
        self.l2 = Cache(l2, "l2")
        self.memory_latency = memory_latency

    def _l2_or_memory(self, addr: int) -> int:
        if self.l2.access(addr):
            return self.l2.config.latency
        return self.l2.config.latency + self.memory_latency

    def ifetch(self, addr: int) -> int:
        """Instruction fetch at *addr*; returns total latency in cycles."""
        if self.il1.access(addr):
            return self.il1.config.latency
        return self.il1.config.latency + self._l2_or_memory(addr)

    def dread(self, addr: int) -> int:
        """Data read at *addr*; returns total latency in cycles."""
        if self.dl1.access(addr):
            return self.dl1.config.latency
        return self.dl1.config.latency + self._l2_or_memory(addr)

    def dwrite(self, addr: int) -> int:
        """Data write at *addr* (write-allocate); returns latency."""
        return self.dread(addr)
