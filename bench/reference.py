"""Reference computations the benchmark checks seqaudit against.

They share no code with seqaudit: mutual information straight from a count
table, Pearson's chi-squared against given expected counts, and the exact
law of the matched lattice walk by forward recursion over levels.
``self_check`` tests each one on tiny inputs whose values follow by hand.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2 as chi2_law


def mutual_info_bits(joint) -> float:
    """I(X;Y) in bits from a two-way count table (rows X, columns Y)."""
    joint = np.asarray(joint, dtype=np.float64)
    n = joint.sum()
    px = joint.sum(axis=1, keepdims=True) / n
    py = joint.sum(axis=0, keepdims=True) / n
    p = joint / n
    nz = p > 0
    return float(np.sum(p[nz] * np.log2(p[nz] / (px @ py)[nz])))


def conditional_mi_bits(counts) -> float:
    """I(H;T|D) in bits from counts indexed [h, d, t]."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    return sum(
        counts[:, d, :].sum() / n * mutual_info_bits(counts[:, d, :])
        for d in range(counts.shape[1])
        if counts[:, d, :].sum() > 0
    )


def chi2_gof(observed, expected):
    """Pearson statistic and upper-tail p-value at len(observed) - 1 dof."""
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return stat, float(chi2_law.sf(stat, observed.size - 1))


def lattice_law(p: float, m1: int, m2: int, tail: float = 1e-15):
    """Exact P(T=k, D=d | H=h) of the matched lattice walk.

    The level starts at 0, moves +1 with probability p under H=1 (1-p under
    H=2) and -1 otherwise, and stops at +m1 (decision 1) or -m2 (decision 2).
    Returns {h: {(k, d): probability}}, recursing until less than ``tail``
    of the mass is still moving.
    """
    law = {}
    for h, up in ((1, p), (2, 1.0 - p)):
        alive = {0: 1.0}
        cells = {}
        k = 0
        while sum(alive.values()) >= tail:
            k += 1
            moved = {}
            for level, mass in alive.items():
                for step, q in ((1, up), (-1, 1.0 - up)):
                    nxt = level + step
                    if nxt == m1:
                        cells[(k, 1)] = cells.get((k, 1), 0.0) + mass * q
                    elif nxt == -m2:
                        cells[(k, 2)] = cells.get((k, 2), 0.0) + mass * q
                    else:
                        moved[nxt] = moved.get(nxt, 0.0) + mass * q
            alive = moved
        law[h] = cells
    return law


def self_check() -> None:
    """Raise AssertionError if a reference routine misses a hand-worked value."""
    close = lambda a, b: abs(a - b) < 1e-12
    # a copied bit carries one bit; a 2x2 table with equal cells carries none
    if not close(mutual_info_bits([[1, 0], [0, 1]]), 1.0):
        raise AssertionError("mutual_info_bits on a copied bit")
    if not close(mutual_info_bits([[3, 3], [5, 5]]), 0.0):
        raise AssertionError("mutual_info_bits on independent variables")
    # decision 1 copies H into T, decision 2 ignores it; P(D=1) = 1/2
    counts = np.zeros((2, 2, 2))
    counts[0, 0, 0] = counts[1, 0, 1] = 1
    counts[:, 1, :] = 0.5
    if not close(conditional_mi_bits(counts), 0.5):
        raise AssertionError("conditional_mi_bits on half a copied bit")
    # (10-15)^2/15 + (20-15)^2/15 = 10/3; one dof, so p = erfc(sqrt(10/6))
    stat, p = chi2_gof([10, 20], [15, 15])
    if not (close(stat, 10.0 / 3.0) and close(p, math.erfc(math.sqrt(10.0 / 6.0)))):
        raise AssertionError("chi2_gof on two cells")
    # m1 = m2 = 2: T = 2 ends up-up (p^2) or down-down ((1-p)^2); otherwise the
    # walk is back at 0 after two steps, so P(T=2 | D=1, H) = 0.68 at p = 0.8
    law = lattice_law(0.8, 2, 2)
    if not (close(law[1][(2, 1)], 0.64) and close(law[2][(2, 1)], 0.04)):
        raise AssertionError("lattice_law two-step cells")
    if not close(law[1][(4, 1)], 0.32 * 0.64):
        raise AssertionError("lattice_law four-step cell")
    d1 = {h: sum(v for (k, d), v in law[h].items() if d == 1) for h in (1, 2)}
    if not (close(law[1][(2, 1)] / d1[1], 0.68) and close(law[2][(2, 1)] / d1[2], 0.68)):
        raise AssertionError("lattice_law conditional time law")
    if not close(sum(law[1].values()), 1.0):
        raise AssertionError("lattice_law total mass")
