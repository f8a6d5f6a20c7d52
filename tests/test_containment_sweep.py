"""Seeded containment sweep of the right half-plane against
``mpmath.loggamma`` at 50 digits, where ``choose_k``'s screen picks k.

Two families of points, each required to have zero violations:

* lngamma(z) with Re z >= 0 and |z| log-uniform in [1e-3, 1e15], at every
  argument in the closed right half-plane (the positive imaginary and real
  axes included);
* lngamma(z + 1/2) on the imaginary axis, z = iy with |y| log-uniform in
  [1e-3, 1e14].

Each point is evaluated at the default target and at one explicit target,
1e-14 to 1e-3 relative to a rough |value| + 1; a target below the
floating-point floor is refused, and the refusals are counted.  The
comparison is done in mpmath, so the reference is never rounded to a double
before it is checked against the radius.
"""
from __future__ import annotations

import cmath
import math
import random

import mpmath as mp
import pytest

from gammatheta import AccuracyError
from gammatheta.lngamma import eval_lngamma, eval_lngamma_half

SEED = 20261019


def right_half_plane_points(count: int) -> list[complex]:
    rng = random.Random(SEED)
    points = []
    for _ in range(count):
        angle = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
        points.append(cmath.rect(10.0 ** rng.uniform(-3.0, 15.0), angle))
    return points + [complex(0.0, 10.0 ** e) for e in range(-3, 16)] + [
        complex(10.0 ** e, 0.0) for e in range(-3, 16)
    ]


def imaginary_axis_points(count: int) -> list[complex]:
    rng = random.Random(SEED + 1)
    return [
        complex(0.0, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 14.0))
        for _ in range(count)
    ]


def violations(points: list[complex], half: bool) -> tuple[list, int]:
    """Points whose radius misses the reference, with error / radius, and
    the number of refused targets."""
    evaluate = eval_lngamma_half if half else eval_lngamma
    rng = random.Random(SEED + 2)
    found, refused = [], 0
    with mp.workdps(50):
        for z in points:
            truth = mp.loggamma(mp.mpc(z) + (mp.mpf(0.5) if half else 0))
            scale = abs(z) * (abs(math.log(abs(z))) + 1.0) + 1.0
            for accuracy in (None, scale * 10.0 ** rng.uniform(-14.0, -3.0)):
                try:
                    result = evaluate(z, accuracy=accuracy)
                except AccuracyError:
                    refused += 1
                    continue
                error = abs(mp.mpc(result.value) - truth)
                if not error <= result.radius:
                    found.append((z, accuracy, float(error / result.radius)))
    return found, refused


@pytest.mark.parametrize(
    ("points", "half"),
    [(right_half_plane_points(3000), False), (imaginary_axis_points(1500), True)],
    ids=["right-half-plane", "half-family-imaginary-axis"],
)
def test_right_half_plane_values_contain_mpmath_loggamma(points, half):
    found, refused = violations(points, half)
    assert found == []
    # only explicit targets next to the floor are refused
    assert refused <= len(points) // 100
