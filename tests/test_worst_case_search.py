"""Worst-case search with hypothesis ``target()``.

The seeded sweeps draw random points; this search steers towards the worst
ones.  Two ratios must stay below 1:

* error over radius, against mpmath at 40 digits, for ``eval_lngamma`` (the
  whole plane off the cut) and ``eval_lngamma_half`` (the closed right
  half-plane) at their default target, at an explicit ``accuracy`` between
  the floor at z and 1e-3 (log-uniform) and at a fixed k from 1 to 30, and
  for auto-mode ``eval_theta``;
* the fp part, |value - exact k-term value| over (radius - truncation
  bound), for both lngamma families on the closed right half-plane.  The
  exact k-term value is the value the evaluator rounds: the main terms and
  k series terms at z + shifts, less the shift logs, all in mpmath.  At the
  default target the fp charge is most of the radius, so this is where a
  charge that is too small shows first.

The search is deterministic (``derandomize=True``, no example database), so
two runs report the same maxima; they are printed with ``pytest -s``.
"""
from __future__ import annotations

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings, target
from hypothesis import strategies as st

from gammatheta.errors import AccuracyError
from gammatheta.lngamma import eval_lngamma, eval_lngamma_half
from gammatheta.series import term_coefficient
from gammatheta.theta import eval_theta

SEARCH = settings(
    derandomize=True,
    database=None,
    max_examples=600,
    phases=(Phase.generate, Phase.target),
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow, HealthCheck.filter_too_much),
)

#: log10 |z| and arg z; the right half-plane arguments stay in [-pi/2, pi/2]
LOG_MODULUS = st.floats(-3.0, 15.0)
RIGHT_ANGLE = st.floats(-0.5 * math.pi, 0.5 * math.pi)
ANY_ANGLE = st.floats(-math.pi, math.pi)

FAMILIES = {
    "stirling": (eval_lngamma, 0.0),
    "gauss": (eval_lngamma_half, 0.5),
}
#: the arguments each family takes: the plane off the cut, the right half
ANGLES = {"stirling": ANY_ANGLE, "gauss": RIGHT_ANGLE}


def run_search(objective, *strategies) -> float:
    """The largest ratio ``objective`` returns over the search, each one
    asserted below 1 where it is found."""
    found = []

    @SEARCH
    @given(st.tuples(*strategies))
    def probe(args):
        ratio = objective(*args)
        target(ratio)
        found.append(ratio)
        assert ratio < 1.0, args

    probe()
    return max(found)


def error_over_radius(family: str, z: complex, **request) -> float:
    evaluate, offset = FAMILIES[family]
    result = evaluate(z, **request)
    with mp.workdps(40):
        error = abs(mp.mpc(result.value) - mp.loggamma(mp.mpc(z) + offset))
    return float(error / result.radius)


def accuracy_between_floor_and(family: str, z: complex, top: float, u: float) -> float:
    """The accuracy a fraction ``u`` of the way, in log, from the floor at z
    (the best radius an unattainable request reports; a reflected call halves
    the request) up to ``top``, or the floor where that is above ``top``."""
    try:
        FAMILIES[family][0](z, accuracy=1e-300)
    except AccuracyError as exc:
        floor = exc.best_radius * (2.0 if z.real < 0.0 else 1.0)
    return floor * max(1.0, top / floor) ** u


def exact_k_term_value(family: str, z: complex, k: int, shifts: int) -> mp.mpc:
    """Main terms plus k series terms at z + shifts, less the shift logs."""
    offset = FAMILIES[family][1]
    z = mp.mpc(z)
    w = z + shifts
    logs = mp.fsum(mp.log(z + offset + j) for j in range(shifts))
    main = (w - (0.5 - offset)) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
    coefficients = (term_coefficient(family, j) for j in range(1, k + 1))
    terms = mp.fsum(
        mp.mpf(c.numerator) / c.denominator / w ** (2 * j - 1)
        for j, c in enumerate(coefficients, 1)
    )
    return main + terms - logs


def fp_part(family: str, z: complex) -> float:
    evaluate, _ = FAMILIES[family]
    result = evaluate(z)
    plan = result.plan
    with mp.workdps(40):
        exact = exact_k_term_value(family, z, plan.k, plan.shifts)
        error = abs(mp.mpc(result.value) - exact)
    return float(error / (result.radius - plan.truncation_bound))


def test_lngamma_error_over_radius():
    def objective(log_modulus, angle):
        z = cmath.rect(10.0 ** log_modulus, angle)
        assume(not (z.imag == 0.0 and z.real <= 0.0))
        return error_over_radius("stirling", z)

    worst = run_search(objective, LOG_MODULUS, ANY_ANGLE)
    print(f"lngamma error/radius max {worst:.4g}")
    assert worst < 1.0


def test_lngamma_half_error_over_radius():
    def objective(log_modulus, angle):
        return error_over_radius("gauss", cmath.rect(10.0 ** log_modulus, angle))

    worst = run_search(objective, LOG_MODULUS, RIGHT_ANGLE)
    print(f"lngamma_half error/radius max {worst:.4g}")
    assert worst < 1.0


def test_theta_error_over_radius():
    def objective(log_t, sign):
        t = sign * 10.0 ** log_t
        result = eval_theta(t)
        with mp.workdps(40):
            error = abs(mp.mpf(result.value) - mp.siegeltheta(t))
        return float(error / result.radius)

    # heights up to 50 keep the auto-mode sums in their fast range
    log_t = st.floats(-3.0, math.log10(50.0))
    worst = run_search(objective, log_t, st.sampled_from((-1.0, 1.0)))
    print(f"theta error/radius max {worst:.4g}")
    assert worst < 1.0


@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_explicit_accuracy_error_over_radius(family):
    def objective(log_modulus, angle, u):
        z = cmath.rect(10.0 ** log_modulus, angle)
        assume(not (z.imag == 0.0 and z.real <= 0.0))
        accuracy = accuracy_between_floor_and(family, z, 1e-3, u)
        return error_over_radius(family, z, accuracy=accuracy)

    worst = run_search(objective, LOG_MODULUS, ANGLES[family], st.floats(0.0, 1.0))
    print(f"{family} explicit-accuracy error/radius max {worst:.4g}")
    assert worst < 1.0


@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_fixed_k_error_over_radius(family):
    def objective(log_modulus, angle, k):
        z = cmath.rect(10.0 ** log_modulus, angle)
        assume(not (z.imag == 0.0 and z.real <= 0.0))
        return error_over_radius(family, z, k=k)

    worst = run_search(objective, LOG_MODULUS, ANGLES[family], st.integers(1, 30))
    print(f"{family} fixed-k error/radius max {worst:.4g}")
    assert worst < 1.0


@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_the_fp_part_stays_inside_its_charge(family):
    def objective(log_modulus, angle):
        return fp_part(family, cmath.rect(10.0 ** log_modulus, angle))

    worst = run_search(objective, LOG_MODULUS, RIGHT_ANGLE)
    print(f"{family} fp error/fp charge max {worst:.4g}")
    assert worst < 1.0
