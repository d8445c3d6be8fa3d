"""The retirement-window timing model.

All four consistency models share one mechanical skeleton: an out-of-order
core *decodes* (and may start fetching for) an instruction up to
``instruction_window`` dynamic instructions before it *retires*, and
retirement is in program order at ``commit_width`` instructions/cycle.
What differs between models is purely which ops are allowed to *retire
before completing*:

* SC: nothing — but prefetches launched at decode hide part of each miss.
* RC / SC++: stores retire into a buffer / the SHiQ; loads hold retirement
  until their data returns.
* BulkSC: both loads and stores retire speculatively inside the chunk;
  loads still gate *dependent use*, which we approximate the same way as
  RC's load-retirement gate.

:class:`RetirementWindow` tracks the retirement cursor and a ring of
recent retirement timestamps so we can ask "when was this op decoded?" —
the decode time of op *i* is approximately when op *i - window* retired.
Memory-level parallelism is capped by the L1 MSHR file.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.memory.mshr import MshrFile
from repro.params import ProcessorConfig


class RetirementWindow:
    """In-order retirement cursor with decode-ahead timestamps."""

    def __init__(self, config: ProcessorConfig, mshr: MshrFile):
        self.config = config
        self.mshr = mshr
        # The run loops (``repro.consistency.base`` and
        # ``repro.core.driver``) hold ``retire_cursor`` and
        # ``ring_instructions`` in locals and retire compute bursts, L1
        # hits and plain misses themselves, with exactly the arithmetic of
        # :meth:`retire_compute` / :meth:`retire_memory` / :meth:`_push`
        # (a miss still goes through ``mshr.admit``), writing both
        # counters back before any call into this object.
        self.retire_cursor = 0.0
        self.per_instruction = 1.0 / config.commit_width
        self.l1_round_trip = 2.0  # refined by set_l1_round_trip()
        #: Ring of the retirement times of the last `instruction_window`
        #: dynamic instructions, coarsened to one entry per micro-op and
        #: held as two parallel columns (no tuple per retired op):
        #: ``ring_times[i]`` retired ``ring_counts[i]`` instructions.
        self.ring_times: Deque[float] = deque()
        self.ring_counts: Deque[int] = deque()
        #: Instructions the ring covers.
        self.ring_instructions = 0

    # ------------------------------------------------------------------
    def decode_time(self) -> float:
        """When the op about to retire was decoded.

        The op entered the window when the instruction ``window`` dynamic
        instructions ahead of it retired.  Compute bursts are interpolated
        at pipeline rate so a coarse burst still yields instruction-level
        decode distance.  At startup (window not yet full) decode time
        is 0.
        """
        need = self.config.instruction_window
        if self.ring_instructions < need:
            return 0.0
        # :meth:`_push` trims the ring so that the window *minus its
        # oldest entry* always holds fewer than ``need`` instructions —
        # the op ``need`` back therefore always falls in the oldest
        # entry, making this O(1) rather than a walk.
        into_entry = need - (self.ring_instructions - self.ring_counts[0])
        return max(0.0, self.ring_times[0] - into_entry * self.per_instruction)

    def _push(self, retire_time: float, instructions: int) -> None:
        times, counts = self.ring_times, self.ring_counts
        times.append(retire_time)
        counts.append(instructions)
        self.ring_instructions += instructions
        window = self.config.instruction_window
        while counts and self.ring_instructions - counts[0] >= window:
            times.popleft()
            self.ring_instructions -= counts.popleft()

    # ------------------------------------------------------------------
    def retire_compute(self, instructions: int) -> float:
        """Retire a compute burst; returns the new cursor."""
        self.retire_cursor += instructions * self.per_instruction
        self._push(self.retire_cursor, instructions)
        return self.retire_cursor

    def retire_memory(
        self,
        latency: float,
        blocking: bool,
        instructions: int = 1,
        extra_ready_time: float = 0.0,
        fetch_at_decode: bool = True,
        line_addr: int = -1,
        unhideable: float = 0.0,
    ) -> float:
        """Retire one memory op and return the new retirement cursor.

        Every call-out retires through here; the run loops' inline hit
        and plain-miss retirement must stay equal to it.

        Args:
            latency: Access latency from the coherence controller.
            blocking: If True, retirement waits for the data (loads in
                every model; stores under SC).  If False, the op retires
                at pipeline speed (buffered stores, BulkSC ops).
            instructions: Dynamic instructions this op represents.
            extra_ready_time: An absolute lower bound on retirement (e.g.
                a bounced read's retry completion).
            fetch_at_decode: If True the miss was launched when the op was
                decoded (prefetching / speculative loads); if False the
                fetch starts only at the retirement point (naive SC).
            line_addr: Line accessed; misses occupy an MSHR entry when a
                non-negative line address is given.
            unhideable: Latency that cannot start before the retirement
                point no matter how early the fetch was issued — e.g. the
                global-visibility work (invalidation acknowledgements) an
                SC store must complete at retirement.
        """
        pipeline_time = self.retire_cursor + instructions * self.per_instruction
        visibility_floor = self.retire_cursor + unhideable
        is_miss = latency > self.l1_round_trip
        if blocking and latency > 0:
            fetch_start = self.decode_time() if fetch_at_decode else self.retire_cursor
            if is_miss and line_addr >= 0:
                # The miss occupies (or merges into) an MSHR entry; a full
                # file delays the fetch.
                fetch_start = self.mshr.admit(line_addr, latency, fetch_start)
            self.retire_cursor = max(
                pipeline_time, fetch_start + latency, extra_ready_time,
                visibility_floor,
            )
        else:
            self.retire_cursor = max(
                pipeline_time, extra_ready_time, visibility_floor
            )
            if is_miss and line_addr >= 0:
                self.mshr.admit(line_addr, latency, self.decode_time())
        self._push(self.retire_cursor, instructions)
        return self.retire_cursor

    def set_l1_round_trip(self, cycles: float) -> None:
        """Latencies at or below this are hits and bypass the MSHR file."""
        self.l1_round_trip = cycles

    def stall_until(self, time: float) -> float:
        """Externally imposed stall (barrier wait, commit wait, ...)."""
        if time > self.retire_cursor:
            self.retire_cursor = time
        return self.retire_cursor

    @property
    def now(self) -> float:
        return self.retire_cursor
