"""How fast the machine runs right now, from fixed reference work.

The benchmark shares its machine with other work, and the machine's speed
drifts by a third within minutes while single passes vary by a fifth.
Medians over one run cannot remove a drift that is slower than the run.
So every run times a fixed reference loop (benchmark code, never the
program's) for REF_SHARE of each pass's time, right after the pass, and
scales each pass by REF_NOMINAL_S over the loop's mean time after it: a
time metric then reads the seconds the pass would take while the reference loop
takes its nominal time.  A change of the program moves the pass times and
not the loop, so it shows in full; a change of machine speed moves both.

Cold imports follow another speed: that of a fresh process mapping and
faulting in memory, which the loop in the benchmark process does not
track.  Their reference is a fresh process that faults in FRESH_MB of
fresh pages (fresh_process_seconds).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REF_NOMINAL_S = 0.010   # the loop's typical time on a shared 2-vCPU x86-64 VM
REF_SHARE = 0.5         # reference time after a pass, as a share of the pass
FRESH_NOMINAL_S = 0.045  # fresh_process_seconds() typical on the same VM
FRESH_MB = 64
_FRESH_PROBE = ("import time; t = time.perf_counter(); b = bytearray({mb} << 20)\n"
                "for i in range(0, len(b), 4096): b[i] = 1\n"
                "print(time.perf_counter() - t)").format(mb=FRESH_MB)
_LOOP = 24_000
_SOLVES = 600
_MATRIX = np.array([[4.0, 1.0, 0.0, 0.5], [1.0, 5.0, 1.0, 0.0],
                    [0.0, 1.0, 6.0, 1.0], [0.5, 0.0, 1.0, 7.0]])
_RHS = np.ones(4)


def reference_block() -> float:
    """One fixed slice of interpreter loop and small numpy calls; its seconds.

    The mix is that of the workloads: Python-level arithmetic and dict
    updates (graph, layout, verifier) and one small linear solve per call
    (newton_solve).
    """
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(_LOOP):
        total += (i * 0.5) % 7.0
        table[i & 255] = total
    for i in range(_SOLVES):
        np.linalg.solve(_MATRIX + i * 1e-3, _RHS)
    return time.perf_counter() - start


def fresh_process_seconds() -> float:
    """Seconds a fresh Python process takes to fault in FRESH_MB of memory."""
    done = subprocess.run([sys.executable, "-c", _FRESH_PROBE], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


class Meter:
    """Reference samples taken between the passes of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []    # every reference block of the run
        self.per_pass: list[float] = []   # mean block time after each pass
        self._open: list[float] = []      # blocks of the pass in progress

    def pause(self, work_s: float) -> None:
        """Time reference blocks for REF_SHARE of work_s, at least one."""
        spent = 0.0
        start = len(self._open)
        while len(self._open) == start or spent < REF_SHARE * work_s:
            self._open.append(reference_block())
            spent += self._open[-1]

    def end_pass(self, pass_s: float) -> None:
        """Close a pass; pauses for it now unless it paused between its parts."""
        if not self._open:
            self.pause(pass_s)
        self.samples += self._open
        self.per_pass.append(statistics.fmean(self._open))
        self._open = []

    def scale(self) -> float:
        """Factor from measured to nominal-speed seconds over the whole run."""
        return REF_NOMINAL_S / statistics.fmean(self.samples)

    def scaled_each(self, pass_s: list[float]) -> list[float]:
        """Each pass scaled by the reference blocks that followed it."""
        return [w * REF_NOMINAL_S / r for w, r in zip(pass_s, self.per_pass)]
