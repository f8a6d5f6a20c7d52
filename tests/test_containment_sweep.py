"""Seeded containment sweep of the right half-plane against
``mpmath.loggamma`` and of small theta heights against
``mpmath.siegeltheta``, at 50 digits.

Each family of points is required to have zero violations:

* lngamma(z) with Re z >= 0 and |z| log-uniform in [1e-3, 1e15], at every
  argument in the closed right half-plane (the positive imaginary and real
  axes included);
* lngamma(z + 1/2) on the imaginary axis, z = iy with |y| log-uniform in
  [1e-3, 1e14];
* lngamma(z) within 1/4 of its zeros at z = 1 and z = 2, where the radius
  is absolute, not relative;
* theta(t) in all three variants at heights log-uniform in [1e-6, 0.24],
  where auto mode sums one term, and at 14 log-spaced heights from 118 to
  317.9, where the terms near the least one underflow doubles and the
  least term is at most the cap's k = 999;
* both families at a fixed k in 21...999 with |z| >= k, so that the sum
  runs the term-ratio recurrence at large k without a shift;
* the points where the objectives of ``test_worst_case_search.py`` peak,
  pinned, so that a change which worsens them shows here too.

The first three are evaluated at the default target and at one explicit
target, 1e-14 to 1e-3 relative to a rough |value| + 1; a target below the
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
from gammatheta.theta import ThetaVariant, eval_theta

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


def near_zero_points(count: int) -> list[complex]:
    """``count`` points within 1/4 of each of z = 1 and z = 2, at distances
    log-uniform in [2.5e-16, 1/4] and in every direction."""
    rng = random.Random(SEED + 3)
    return [
        center + cmath.rect(0.25 * 10.0 ** rng.uniform(-15.0, 0.0), rng.uniform(-math.pi, math.pi))
        for center in (1.0, 2.0)
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
    [
        (right_half_plane_points(3000), False),
        (imaginary_axis_points(1500), True),
        (near_zero_points(400), False),
    ],
    ids=["right-half-plane", "half-family-imaginary-axis", "near-the-zeros-at-1-and-2"],
)
def test_right_half_plane_values_contain_mpmath_loggamma(points, half):
    found, refused = violations(points, half)
    assert found == []
    # only explicit targets next to the floor are refused
    assert refused <= len(points) // 100


def test_small_theta_heights_contain_mpmath_siegeltheta():
    rng = random.Random(SEED + 4)
    found = []
    with mp.workdps(50):
        for _ in range(200):
            t = 10.0 ** rng.uniform(-6.0, math.log10(0.24))
            truth = mp.siegeltheta(t)
            for variant in ThetaVariant:
                result = eval_theta(t, variant=variant)
                error = abs(mp.mpf(result.value) - truth)
                if not error <= result.radius:
                    found.append((t, variant, float(error / result.radius)))
    assert found == []


def test_theta_heights_up_to_the_cap_contain_mpmath_siegeltheta():
    heights = [118.0 * (317.9 / 118.0) ** (i / 13) for i in range(14)]
    found = []
    with mp.workdps(50):
        for t in heights:
            truth = mp.siegeltheta(t)
            for variant in ThetaVariant:
                result = eval_theta(t, variant=variant)
                error = abs(mp.mpf(result.value) - truth)
                if not error <= result.radius:
                    found.append((t, variant, float(error / result.radius)))
    assert found == []
    assert eval_theta(heights[-1]).k_used == 999


def test_fixed_large_k_values_contain_mpmath_loggamma():
    rng = random.Random(SEED + 5)
    found = []
    with mp.workdps(50):
        for _ in range(200):
            k, half = rng.randint(21, 999), rng.random() < 0.5
            z = cmath.rect(k * 10.0 ** rng.uniform(0.0, 3.0), rng.uniform(-0.5, 0.5) * math.pi)
            result = (eval_lngamma_half if half else eval_lngamma)(z, k=k)
            assert result.plan.k == k
            truth = mp.loggamma(mp.mpc(z) + (mp.mpf(0.5) if half else 0))
            error = abs(mp.mpc(result.value) - truth)
            if not error <= result.radius:
                found.append((z, k, half, float(error / result.radius)))
    assert found == []


#: Where each objective of ``test_worst_case_search.py`` peaks: the family,
#: the argument and the request, with the ratio the search found there.
WORST_SEARCH_POINTS = (
    # error / radius at the default target: 0.4720 and 0.4576
    ("stirling", complex(5.141561835437165, 7.054599194057702), {}),
    ("gauss", complex(4.650198468642574, 5.250321430141674), {}),
    # error / radius at an explicit accuracy: 0.9542 and 0.8422
    ("stirling", complex(0.020303702608682365, -3.16221247857578),
     {"accuracy": 1.4736462412394097e-06}),
    ("gauss", complex(1.4645418346423205, 3.968939180339377),
     {"accuracy": 1.4869356050729196e-07}),
    # error / radius at a fixed k: 0.7781 and 0.9321
    ("stirling", complex(0.9837601941142106, 0.17948782821230727), {"k": 5}),
    ("gauss", complex(0.1913737658465736, 3.2443142341205484), {"k": 3}),
    # fp error / fp charge at the default target: 0.0683 and 0.0651
    ("stirling", complex(632727208190830.0, 0.0), {}),
    ("gauss", complex(5.671985951684796, 10.670507504462192), {}),
)
#: The theta objective's peak: auto mode, error / radius 0.4266.
WORST_SEARCH_T = 0.24735294023400756


def test_the_worst_points_of_the_search_contain_mpmath():
    found = []
    with mp.workdps(50):
        for family, z, request in WORST_SEARCH_POINTS:
            half = family == "gauss"
            result = (eval_lngamma_half if half else eval_lngamma)(z, **request)
            truth = mp.loggamma(mp.mpc(z) + (mp.mpf(0.5) if half else 0))
            error = abs(mp.mpc(result.value) - truth)
            if not error <= result.radius:
                found.append((family, z, request, float(error / result.radius)))
        for variant in ThetaVariant:
            result = eval_theta(WORST_SEARCH_T, variant=variant)
            error = abs(mp.mpf(result.value) - mp.siegeltheta(WORST_SEARCH_T))
            if not error <= result.radius:
                found.append((WORST_SEARCH_T, variant, float(error / result.radius)))
    assert found == []
