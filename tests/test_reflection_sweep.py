"""Seeded containment sweep of reflected lngamma (Re z < 0) against
``mpmath.loggamma`` at 50 digits.

Three families of points, each required to have zero violations:

* next to the poles -1 ... -60, at distances 1e-12 to 1e-3 on either side,
  with Im z in {+-1e-12, +-1e-8, +-1e-4, +-0.3};
* far left, |Re z| log-uniform in [1e-3, 1e15], Im z of either sign and
  log-uniform magnitude in [1e-12, 1e15];
* the fixed left-half-plane points of the other lngamma tests;
* points whose reduced distance to a pole has subnormal parts.

The comparison is done in mpmath, so the reference is never rounded to a
double before it is checked against the radius.
"""
from __future__ import annotations

import random

import mpmath as mp
import pytest

from gammatheta.lngamma import eval_lngamma

SEED = 20261018
NEAR_POLE_IMAGS = (1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4, 0.3, -0.3)


def near_pole_points(count: int) -> list[complex]:
    rng = random.Random(SEED)
    points = []
    for _ in range(count):
        pole = -rng.randint(1, 60)
        gap = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -3.0)
        points.append(complex(pole + gap, rng.choice(NEAR_POLE_IMAGS)))
    return points


def far_left_points(count: int) -> list[complex]:
    rng = random.Random(SEED + 1)
    points = []
    for _ in range(count):
        re = -(10.0 ** rng.uniform(-3.0, 15.0))
        im = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 15.0)
        points.append(complex(re, im))
    return points


BRANCH_POINTS = [
    complex(-2.5, 1.0),
    complex(-7.3, -0.4),
    complex(-0.5, 12.0),
    complex(-40.0, 0.25),
] + [
    complex(re, im)
    for re in (-8.5, -3.25, -0.75)
    for im in (0.35, 1.5, 4.0, 11.0, 27.0, -0.35, -4.0, -27.0)
]

SUBNORMAL_POINTS = [
    complex(-5.0, 5e-324),
    complex(-1e-320, 1e-320),
    complex(-0.5, -1e-320),
    complex(-2.0 ** -499, 1e-300),
]


def violations(points: list[complex]) -> list[tuple[complex, float]]:
    """Points whose radius misses the reference, with error / radius."""
    found = []
    with mp.workdps(50):
        for z in points:
            result = eval_lngamma(z)
            assert "REFLECTED" in result.flags
            error = abs(mp.mpc(result.value) - mp.loggamma(mp.mpc(z)))
            if not error <= result.radius:
                found.append((z, float(error / result.radius)))
    return found


@pytest.mark.parametrize(
    "points",
    [near_pole_points(2000), far_left_points(1000), BRANCH_POINTS, SUBNORMAL_POINTS],
    ids=["near-poles", "far-left", "branch-points", "subnormal"],
)
def test_reflected_values_contain_mpmath_loggamma(points):
    assert violations(points) == []
