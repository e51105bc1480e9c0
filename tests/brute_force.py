"""Brute-force string oracles shared by the tests. Each visits every one of
a qubit's d - 1 string qubits, where crflight reads only the two ends."""

import math

from crflight.model import phonon_radius


def brute_force_clearance(q, event, l_mm):
    """Distance from the epicenter to the farthest string qubit of q."""
    a = q.anchor
    return max(math.hypot((a.x + k) * l_mm - event.x_mm,
                          a.y * l_mm - event.y_mm)
               for k in range(1, q.code_distance))


def brute_force_compromised(front, q, t):
    """Point-in-disc count over every string position."""
    event, params = front
    r = phonon_radius(event, params, t)
    l = params.l_mm
    a = q.anchor
    return sum(math.hypot((a.x + k) * l - event.x_mm, a.y * l - event.y_mm) < r
               for k in range(1, q.code_distance))
