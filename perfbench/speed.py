"""The machine's current speed, from a fixed piece of pure-Python work.

The machine this benchmark was built on runs the same code at speeds
that differ by 1.5x and more from second to second and from minute to
minute, on both CPUs, with nothing else running.  A fixed loop of the
kind of work schubcalc does (small tuples, dict updates, sorting) slows
down with it.  Timing that loop right before and after a stretch of
program work, and scaling the program's time by REFERENCE_S over the
loop's time, gives the program's time at one reference speed.  There,
the spread of a workload's cold time over seeds fell from about 0.2 to
about 0.05.

A subprocess is scaled by a bare interpreter run (`python -c pass`)
instead, timed by run.py right before and after it: starting a process
(exec, reading files, page faults) does not follow the loop's speed.
Over 100 s on that machine, medians of 15 set-up times spread 0.074
scaled by the loop, 0.026 unscaled and 0.012 scaled by a bare run.
"""

import time

# What the loop takes at the reference speed, about its best time on the
# machine the benchmark was defined on (see README.md for the hardware).
REFERENCE_S = 0.001
# What a bare interpreter run takes, start to exit, at the reference speed.
PROCESS_REFERENCE_S = 0.05


def _loop():
    start = time.perf_counter()
    d = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i
        tuple(sorted((i % 7, i % 5, i % 3)))
    return time.perf_counter() - start


def probe():
    """Seconds the loop takes now: the fastest of three tries, so that a
    single interruption does not count."""
    return min(_loop() for _ in range(3))


def at_reference(seconds, probes, reference=REFERENCE_S):
    """Scale program seconds to the reference speed by the mean of the
    probe times taken around and during them; `reference` is the probe's
    time at that speed."""
    return seconds * reference * len(probes) / sum(probes)
