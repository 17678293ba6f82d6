"""Value feedback from the execution units to the optimizer tables.

Section 2.2/3.3 of the paper: each value generated by an execution
unit can be integrated back into the optimization tables, converting a
symbolic value into a *known* value.  The feedback path has a
transmission delay (default one cycle; Figure 12 sweeps 0/1/5/10), and
a value is only useful while its physical register is still live.

:class:`ValueFeedbackChannel` models the delay with a FIFO of pending
results and the liveness constraint with (register, version) checks
against the reference-counted register file.
"""

from __future__ import annotations

from collections import deque

from ..uarch.regfile import PhysRegFile


class ValueFeedbackChannel:
    """Delay line + known-value table for execution results."""

    def __init__(self, prf: PhysRegFile, delay: int):
        self._prf = prf
        self._delay = delay
        #: (available_cycle, preg, version, value); completion events
        #: are processed in cycle order, so the deque stays sorted and
        #: ``pending[0][0]`` is the next arrival.
        self.pending: deque[tuple[int, int, int, int]] = deque()
        # preg -> (version, value)
        self._known: dict[int, tuple[int, int]] = {}
        self.values_fed_back = 0
        self.values_dropped_dead = 0

    @property
    def delay(self) -> int:
        return self._delay

    def publish(self, preg: int, value: int, cycle: int) -> None:
        """An execution unit produced *value* into *preg* at *cycle*."""
        self.pending.append((cycle + self._delay, preg,
                              self._prf.version(preg), value))

    def drain(self, cycle: int) -> None:
        """Move arrived results into the known-value table."""
        pending = self.pending
        prf = self._prf
        while pending and pending[0][0] <= cycle:
            _, preg, version, value = pending.popleft()
            if prf.is_live(preg) and prf.version(preg) == version:
                self._known[preg] = (version, value)
                self.values_fed_back += 1
            else:
                # The register was recycled before the value arrived —
                # the paper's "no longer referenced" case.
                self.values_dropped_dead += 1

    def lookup(self, preg: int) -> int | None:
        """The known value of *preg*, or None.

        Validates liveness and version so a recycled register never
        reports a stale value.
        """
        record = self._known.get(preg)
        if record is None:
            return None
        version, value = record
        if not self._prf.is_live(preg) or self._prf.version(preg) != version:
            del self._known[preg]
            return None
        return value

    def record_known(self, preg: int, value: int) -> None:
        """Record a value the optimizer itself computed (early execution)."""
        self._known[preg] = (self._prf.version(preg), value)

    def known_count(self) -> int:
        return len(self._known)
