"""Host speed probe: reports timings at a fixed reference speed of the host.

Other tenants of a shared host slow this one by up to half, for seconds at a
time, so the mean speed of a 30-second run differs from run to run by more
than a regression bound.  The probe is a fixed computation of the kind the
solver's heavy-set build does: Fraction block weights of every 3-set of a
15-vertex graph, in this directory's own arithmetic (check.py), so no change
to the program moves it.  The benchmark times it between the steps it
measures, and `scale` turns those probe times into the factor that puts a
wall time at the host speed at which the probe takes PROBE_REF_S, its best
time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest with Python 3.11.7.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations

from check import Graph, prop2_weights

PROBE_GRAPH = Graph(15, prop2_weights(15, 3, Fraction(2, 3)))
PROBE_REF_S = 0.004


def probe() -> float:
    """Seconds the probe computation takes right now."""
    start = time.perf_counter()
    sum(PROBE_GRAPH.block_weight(b) for b in combinations(range(PROBE_GRAPH.n), 3))
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor from wall time to time at reference speed, over the mean of `probes`."""
    return PROBE_REF_S * len(probes) / sum(probes)
