"""How fast the host runs Python right now, from a fixed probe.

On a shared host the speed of one core drifts by up to a factor of two
within minutes, as neighbours come and go, and a run's wall times drift
with it.  The benchmark therefore runs this probe before each command and
after the last one of a round, and rescales each command's wall time by
REFERENCE_S over the mean of the two probes around it.  The probe uses
none of `cgd`, so a change to the program moves the rescaled time exactly
as it moves the wall time; only the host's drift is divided out.  The
probe mixes the operations the program spends its time on: tuple-keyed
dicts, frozensets, sorting with key functions and breadth-first search
over tuple path names.
"""
from __future__ import annotations

from time import perf_counter

# About the probe's median time on one core of a 2.1 GHz Xeon virtual
# machine with Python 3.11, so that rescaled times read as seconds there.
REFERENCE_S = 0.030


def probe() -> float:
    """Run the fixed probe once; returns its wall time in seconds."""
    t0 = perf_counter()
    table = {}
    for i in range(16000):
        key = (i % 97, (i * 7) % 13, i)
        table[frozenset((key[:2], (i,)))] = key
    sorted(table.values(), key=lambda k: (k[0] % 31, k[2]))

    n = 1400
    adjacency = {v: {"a": ((v + 1) % n, "b"), "b": ((v - 1) % n, "a")}
                 for v in range(n)}
    names = {0: ()}
    frontier = [0]
    while frontier:
        best = {}
        for v in frontier:
            for port in ("a", "b"):
                w, far = adjacency[v][port]
                if w in names:
                    continue
                candidate = names[v] + ((port, far),)
                if w not in best or candidate < best[w]:
                    best[w] = candidate
        frontier = sorted(best, key=best.__getitem__)
        for w in frontier:
            names[w] = best[w]
    return perf_counter() - t0


def rescale(seconds: float, probe_before: float, probe_after: float) -> float:
    """A wall time rescaled to the reference host speed."""
    return seconds * REFERENCE_S * 2 / (probe_before + probe_after)
