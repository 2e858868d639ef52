"""Wall-clock timing scaled to a reference speed.

The benchmark machine's vCPUs change speed by up to 1.7x, in spells from
under a second to minutes; a run that falls in a slow spell reads slower
throughout, and no statistic over one run's rounds removes that. So every
timed call is bracketed by two runs of a fixed probe kernel, made of the
small numpy operations and interpreter work that linfeas spends its time
on, and its wall time is scaled by REFERENCE_S over the mean probe time:

    reference seconds = wall seconds * REFERENCE_S / mean(probe before, probe after)

A call that takes k probe lengths reads k * REFERENCE_S, whatever speed the
machine ran at. The probe does not touch linfeas, so a change to linfeas
moves reference seconds exactly as it moves wall seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

REFERENCE_S = 5e-4  # one probe length in reference seconds; near its wall time on a 2-vCPU Xeon VM
_MATRIX = np.random.default_rng(0).standard_normal((20, 60))


def _kernel() -> None:
    """Small numpy steps, then an argparse parser and a JSON round trip, as a CLI call makes."""
    w = np.ones(_MATRIX.shape[0])
    for _ in range(20):
        i = int((w @ _MATRIX).argmin())
        w = 0.9 * w + 0.1 * _MATRIX[:, i]
    parser = argparse.ArgumentParser(prog="probe")
    for j in range(4):
        parser.add_argument(f"--opt{j}", type=float, default=0.0)
    args = parser.parse_args(["--opt1", "2.5"])
    json.loads(json.dumps({"w": w.tolist(), "args": vars(args)}))


def probe() -> float:
    """Wall seconds of the probe kernel now: the median of three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed(fn, *args):
    """``fn(*args)`` with its wall seconds and its reference seconds."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, wall * 2.0 * REFERENCE_S / (before + probe())
