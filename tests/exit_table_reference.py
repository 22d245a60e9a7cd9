"""The exit-law table filled one ``TABLE_CHUNK`` of rows per loop iteration.

This is the fill ``models._exit_cdfs`` used before it moved to passes of
``PASS_ROWS`` rows: each chunk runs its own image series on its small-time
rows and its own eigenfunction series on the rest, and the loop stops after
the chunk holding the first row whose undecided mass is below
``UNDECIDED_FLOOR``.  The tests hold the pass fill to it bit for bit.
"""
import math

import numpy as np

from seqaudit.models import (
    SERIES_TOL,
    SMALL_TIME_U,
    TABLE_CHUNK,
    UNDECIDED_FLOOR,
    _exit_mass,
    _small_time_cdf,
)


def chunk_large_time_tail(t, d, mu, w, b):
    scale = 2.0 * math.pi * b / (w * w)
    lead = mu * d / (2.0 * b)
    total = np.zeros_like(t)
    for k in range(1, 200):
        lam = mu * mu / (4.0 * b) + (k * math.pi) ** 2 * b / (w * w)
        size = scale * k / lam * np.exp(lead - lam * t)
        total += math.sin(k * math.pi * d / w) * size
        if size.max() < SERIES_TOL:
            break
    return total


def chunk_exit_cdf(t, d, mu, w, b, mass):
    lead = mu * d / (2.0 * b)
    t_switch = SMALL_TIME_U * w * w / (2.0 * b)
    if lead > 1.0:
        t_switch = max(t_switch, 4.0 * b * (lead - 1.0) / (mu * mu))
    small = t < t_switch
    f = np.empty_like(t)
    tail = np.empty_like(t)
    if small.any():
        f[small] = _small_time_cdf(t[small], d, mu, w, b)
        tail[small] = mass - f[small]
    if not small.all():
        tail[~small] = chunk_large_time_tail(t[~small], d, mu, w, b)
        f[~small] = mass - tail[~small]
    return f, tail


def chunk_exit_cdfs(a, b, l1, l2, dt, n_steps):
    """(F_1, F_2) as ``models._exit_cdfs`` returns them, one chunk at a time."""
    w = l1 - l2
    sides = ((l1, a), (-l2, -a))
    masses = [_exit_mass(d, mu, w, b) for d, mu in sides]
    rows = ([], [])
    for start in range(1, n_steps + 1, TABLE_CHUNK):
        t = np.arange(start, min(start + TABLE_CHUNK, n_steps + 1)) * dt
        undecided = np.zeros_like(t)
        for (d, mu), mass, out in zip(sides, masses, rows):
            f, tail = chunk_exit_cdf(t, d, mu, w, b, mass)
            out.append(f)
            undecided += tail
        done = np.flatnonzero(undecided < UNDECIDED_FLOOR)
        if done.size:
            for out in rows:
                out[-1] = out[-1][: done[0] + 1]
            break
    return tuple(np.maximum.accumulate(np.maximum(np.concatenate(out), 0.0)) for out in rows)
