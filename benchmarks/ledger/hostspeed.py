"""How fast is this host right now?

The ledger runs in a small guest whose CPUs are hyperthreads shared
with other guests.  The same deterministic simulation takes 0.40 to
0.70 CPU-seconds depending on the minute it runs in, the two CPUs
differ by up to 40% at the same moment, and the slow spells last from
a tenth of a second to a minute -- so no quantile over the passes of a
20-second run removes them (lower quartile of raw CPU time over ten
such runs: 15-25% between quartiles).

What does repeat is the *ratio* of a piece of work to a fixed reference
loop run just before and after it on the same CPU.  :class:`Calibrator`
is that loop: three short parts that lean on what the program leans on
-- interpreter arithmetic, pointer chasing with allocation, small numpy
arrays -- because contention from a sibling hyperthread slows memory
traffic more than arithmetic and a loop of arithmetic alone undercorrects
the numpy-heavy NDT pipeline (18% between quartiles against 7%).  The
loop is the ledger's own code: no change to ``src/`` can speed it up.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np


class _Node:
    __slots__ = ("next", "value")

    def __init__(self, value):
        self.value = value
        self.next = None


class Calibrator:
    """The reference loop.  :meth:`slowdown` runs it (about 30 ms) and
    returns how many times slower than the reference host it ran; 1.0
    is this host with idle neighbours.

    Attributes:
        spent: CPU seconds all calls have used, so that set-up time
            can leave the ledger's own loops out.
        history: every slowdown measured so far, oldest first.
    """

    #: Iterations and reference seconds of each part.
    ARITHMETIC = (120_000, 0.0088)
    CHASE = (40_000, 0.0115)
    ARRAYS = (750, 0.0095)

    def __init__(self):
        start = time.process_time()
        rng = random.Random(0)
        nodes = [_Node(i) for i in range(50_000)]
        order = list(range(len(nodes)))
        rng.shuffle(order)
        for here, there in zip(order, order[1:]):
            nodes[here].next = nodes[there]
        nodes[order[-1]].next = nodes[order[0]]
        self._node = nodes[order[0]]
        self._array = np.random.default_rng(0).random(300)
        # The first run of the loop in a process reads 1.5 to 2.3 on a
        # host where the second reads 1.0 (cold caches, numpy's first
        # FFT plan), so it is thrown away.
        for part in (self._arithmetic, self._chase, self._arrays):
            part()
        self.history: list[float] = []
        self.spent = time.process_time() - start

    def _arithmetic(self) -> None:
        total = 0
        for i in range(self.ARITHMETIC[0]):
            total += i * i % 7

    def _chase(self) -> None:
        node, seen = self._node, []
        for i in range(self.CHASE[0]):
            node = node.next
            seen.append((node.value, i))
        self._node = node

    def _arrays(self) -> None:
        array = self._array
        for _ in range(self.ARRAYS[0]):
            running = np.cumsum(array)
            (running * running).sum()
            np.fft.rfft(array)

    def slowdown(self) -> float:
        parts = ((self._arithmetic, self.ARITHMETIC[1]),
                 (self._chase, self.CHASE[1]),
                 (self._arrays, self.ARRAYS[1]))
        begin = time.process_time()
        total = 0.0
        for part, reference_s in parts:
            start = time.process_time()
            part()
            total += (time.process_time() - start) / reference_s
        self.spent += time.process_time() - begin
        self.history.append(total / len(parts))
        return self.history[-1]

    def pin_to_fastest(self, cpus) -> None:
        """Pin this thread -- and every thread and process it starts
        from now on -- to whichever of ``cpus`` runs the loop fastest at
        this moment, so that an operation and the loops around it at
        least see the same CPU."""
        best_cpu, best = None, float("inf")
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            slowdown = self.slowdown()
            if slowdown < best:
                best_cpu, best = cpu, slowdown
        os.sched_setaffinity(0, {best_cpu})
