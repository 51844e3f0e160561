"""Reference kernel that measures how fast the host runs pure-Python work.

The speed of a shared host drifts by up to 1.7x over minutes for the same
work, so the benchmark brackets every timed region with this kernel and
scales the region's time by ``NOMINAL_S`` over the kernel's mean time around
it: the seconds the region would take on a host where the kernel takes
``NOMINAL_S``.  The module imports nothing but ``time``, so a fresh
interpreter can load it before timing ``import pcnsim`` without importing
anything pcnsim needs.
"""

import time

NODES = 20_000
SAMPLES = 2  # kernel runs just before and again just after a region
NOMINAL_S = 0.012


def kernel_seconds(n: int = NODES) -> float:
    """Time one breadth-first search over a ring lattice of n nodes (radius 3),
    pure-Python work of the kind pcnsim does; it keeps no objects alive."""
    start = time.perf_counter()
    dist = [-1] * n
    dist[0] = 0
    queue = [0]
    for u in queue:
        d = dist[u] + 1
        for v in (u - 3, u - 2, u - 1, u + 1, u + 2, u + 3):
            v %= n
            if dist[v] < 0:
                dist[v] = d
                queue.append(v)
    return time.perf_counter() - start


def samples() -> list[float]:
    return [kernel_seconds() for _ in range(SAMPLES)]


def scaled(seconds: float, kernel_s: float) -> float:
    """seconds at the host speed where the kernel takes NOMINAL_S."""
    return seconds * NOMINAL_S / kernel_s
