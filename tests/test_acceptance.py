"""Acceptance gate: the ten frozen behavioral criteria for this artifact.

Each test pins published reference values (tables, ratios, bound laws) and
the runtime budget stated for it.  The sharpness spot values are ratios of
the imaginary part of the remainder to the last term on the imaginary axis;
the real part there is the exact exponentially small term
-(1/2) log(1 - e^{-2 pi y}), which no truncation of the series reaches.
"""
from __future__ import annotations

import json
import math
import time

import mpmath as mp
import pytest

from gammatheta.bounds import (
    CONTAINMENT_T,
    Target,
    applicable_bounds,
    c_k,
    containment_grid,
    faulty_theta_bound,
)
from gammatheta.lngamma import eval_lngamma, eval_lngamma_half
from gammatheta.oracle import (
    conjecture_scan,
    half_shift_identity_check,
    oracle_lngamma,
    oracle_theta,
    oracle_theta_remainder,
    oracle_remainder,
    required_table2_digits,
    sharpness_ratio,
    theta_series_value,
)
from gammatheta.series import k_min
from gammatheta.theta import ThetaVariant, eval_theta

from conftest import run_cli

pytestmark = pytest.mark.acceptance

TABLE1_PINS = {
    1: "0.072096",
    2: "0.103961",
    3: "0.104294",
    4: "0.105304",
    5: "0.106460",
    6: "0.107384",
    7: "0.108089",
    8: "0.108634",
    9: "0.109067",
    10: "0.109419",
    15: "0.110498",
    20: "0.111050",
    25: "0.111384",
    30: "0.111609",
    50: "0.112060",
}

# t -> (k_min, A, B, C, D) exactly as printed in the reference table.
TABLE2_PINS = {
    "1": ("4", "7.2e1", "3.57", "-0.79", "-1.1e-2"),
    "2": ("7", "2.4e3", "4.69", "-0.63", "+2.4e-4"),
    "5": ("16", "4.6e7", "7.09", "-0.21", "+2.8e-3"),
    "10": ("32", "4.4e14", "10.0", "-0.50", "+8.3e-4"),
    "20": ("64", "2.7e28", "14.2", "-1.08", "+8.3e-5"),
    "50": ("158", "3.7e69", "22.3", "-0.84", "-1.5e-4"),
    "100": ("315", "8.6e137", "31.5", "-0.76", "-5.2e-5"),
}


def records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


# -- criterion 1: constant-table reproduction ---------------------------------


def test_c01_constant_table_pins_via_cli():
    start = time.monotonic()
    result = run_cli("table1", "--kmax", "50", "--digits", "6")
    elapsed = time.monotonic() - start
    assert result.code == 0
    table = {row["outputs"]["k"]: row["outputs"]["c_k"] for row in records(result.out)}
    for k, expected in TABLE1_PINS.items():
        assert table[str(k)] == expected, f"c_{k}"
    assert elapsed < 10.0


# -- criterion 2: constant law -------------------------------------------------


def test_c02_constants_increase_strictly_below_the_limit():
    start = time.monotonic()
    limit = 1.0 / (math.pi**2 - 1.0)
    previous = 0.0
    for k in range(1, 101):
        value = c_k(k)
        assert previous < value < limit, f"k={k}"
        previous = value
    assert time.monotonic() - start < 60.0


# -- criterion 3: normalized-error table reproduction ---------------------------


@pytest.mark.slow
def test_c03_normalized_error_rows_match_the_printed_table():
    start = time.monotonic()
    result = run_cli("table2", "--t-list", ",".join(TABLE2_PINS))
    assert result.code == 0
    rows = {row["outputs"]["t"]: row["outputs"] for row in records(result.out)}
    for t, (kmin, a, b, c, d) in TABLE2_PINS.items():
        row = rows[repr(float(t))]
        assert row["k_min"] == kmin, f"t={t}"
        assert row["A"] == a, f"t={t}"
        assert row["B"] == b, f"t={t}"
        assert row["C"] == c, f"t={t}"
        assert row["D"] == d, f"t={t}"
    assert time.monotonic() - start < 600.0


# -- criterion 4: refuted historical bound ---------------------------------------


def test_c04_historical_bound_is_exceeded_by_the_documented_factor():
    start = time.monotonic()
    t, k = 9.5, 3
    digits = 40
    with mp.workdps(digits + 10):
        true_error = abs(
            oracle_theta(t, digits) - theta_series_value(t, k, digits, variant="standard")
        )
        ratio = float(true_error / faulty_theta_bound(k, t))
    assert 1.005 <= ratio <= 1.017
    assert time.monotonic() - start < 30.0


# -- criterion 5: sharpness spot values |Im R_{k+1}(iy)| / |T_k(iy)| -------------


@pytest.mark.slow
def test_c05_sharpness_spot_values_as_published():
    start = time.monotonic()
    first = float(sharpness_ratio(90, 100.0 / math.pi, digits=20))
    second = float(sharpness_ratio(383, 400.0 / math.pi, digits=20))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert first == pytest.approx(4.62, abs=0.02)
    assert second == pytest.approx(10.15, abs=0.02)


# -- criterion 6: containment sweep ------------------------------------------------


@pytest.mark.slow
def test_c06_every_applicable_bound_contains_the_oracle_truth():
    start = time.monotonic()
    digits = 12
    violations = []
    checked = 0

    def check(truth: float, family: str, argument, k: int) -> None:
        nonlocal checked
        after = applicable_bounds(k, argument, family, Target.R_KP1)
        before = applicable_bounds(k + 1, argument, family, Target.R_K)
        for bound in after + before:
            if not bound.applicable:
                continue
            checked += 1
            if truth > bound.value:
                violations.append((family, k, argument, bound.kind.value))

    for k in range(1, 21):
        for z in containment_grid():
            for family in ("stirling", "gauss"):
                truth = float(abs(oracle_remainder(z, k, family, digits)))
                check(truth, family, z, k)
        for t in CONTAINMENT_T:
            truth = float(abs(oracle_theta_remainder(k, t, digits)))
            check(truth, "theta", t, k)

    assert not violations, violations[:10]
    assert checked > 3000
    assert time.monotonic() - start < 600.0


# -- criterion 7: certified-value containment at 200 deterministic points ----------


@pytest.mark.slow
def test_c07_certified_values_contain_the_oracle_at_200_points():
    plain = [
        complex(re, im)
        for re in (-8.5, -3.25, -0.75, 0.0, 0.25, 1.0, 2.5, 6.0, 15.0, 40.0)
        for im in (0.35, 1.5, 4.0, 11.0, 27.0, -0.35, -4.0, -27.0)
    ]
    half = [
        complex(re, im)
        for re in (0.0, 0.1, 0.4, 1.0, 2.0, 3.3, 5.0, 12.0, 30.0, 80.0)
        for im in (0.0, 0.8, 2.2, 9.0, -33.0, 60.0)
    ]
    heights = (
        0.3, 0.9, 1.7, 2.6, 3.5, 5.5, 8.0, 11.0, 14.0, 17.0,
        21.0, 26.0, 31.0, 37.0, 44.0, 52.0, 61.0, 71.0, 82.0, 94.0,
    )
    thetas = [(t, variant) for t in heights for variant in ThetaVariant]
    assert len(plain) + len(half) + len(thetas) == 200

    for z in plain:
        result = eval_lngamma(z)
        truth = oracle_lngamma(z, 25)
        assert abs(complex(truth) - result.value) <= result.radius, z

    for z in half:
        result = eval_lngamma_half(z)
        truth = oracle_lngamma(complex(z.real + 0.5, z.imag), 25)
        assert abs(complex(truth) - result.value) <= result.radius, z

    for t, variant in thetas:
        result = eval_theta(t, variant=variant)
        truth = oracle_theta(t, 30)
        assert abs(float(truth) - result.value) <= result.radius, (t, variant)


# -- criterion 8: identity suite at 40-digit tolerance ------------------------------


@pytest.mark.slow
def test_c08_identity_suite_at_forty_digits():
    # polynomial half-shift identity across a dense grid
    for k in range(1, 51):
        for i in range(100):
            assert half_shift_identity_check(k, 3.0 * i / 99.0, digits=45), (k, i)

    # the half-family remainder's real part on the imaginary axis
    with mp.workdps(60):
        for t in (0.5, 2.0):
            want = -mp.log(1 + mp.exp(-2 * mp.pi * mp.mpf(t))) / 2
            for k in (1, 3, 7):
                got = oracle_remainder(complex(0.0, t), k, "gauss", 55).real
                assert abs(got - want) <= mp.mpf(10) ** (-40), (k, t)

    # oddness and the exact zero
    zero = eval_theta(0.0)
    assert zero.value == 0.0 and zero.radius == 0.0
    for t in (0.8, 6.0, 23.0):
        assert eval_theta(-t).value == -eval_theta(t).value

    # duplication residual ln G(2z) - ln G(z) - ln G(z+1/2) - (2z-1) ln 2
    # + (1/2) ln pi = 0 on branch-safe points
    with mp.workdps(60):
        ln2, lnpi = mp.log(2), mp.log(mp.pi)
        for z in (2.5 + 0j, 1.0 + 1.0j, 3.0 + 2.0j, 0.6 + 0.3j):
            zz = mp.mpc(z)
            residual = (
                oracle_lngamma(2 * zz, 55)
                - oracle_lngamma(zz, 55)
                - oracle_lngamma(zz + mp.mpf("0.5"), 55)
                - (2 * zz - 1) * ln2
                + lnpi / 2
            )
            assert abs(residual) <= mp.mpf(10) ** (-40), z


# -- criterion 9: conjectured-bound scan ---------------------------------------------


@pytest.mark.slow
def test_c09_conjectured_bound_scan_has_zero_violations():
    samples = list(conjecture_scan(40, digits=12))
    assert len(samples) == 40 * 12
    offenders = [s for s in samples if s.violation]
    assert not offenders, offenders[:5]
    assert max(s.ratio for s in samples) <= 1.0


# -- criterion 10: attainable-accuracy law --------------------------------------------


@pytest.mark.slow
def test_c10_arctan_correction_reaches_the_squared_exponential_scale():
    for t in (5.0, 10.0, 20.0):
        digits = required_table2_digits(t)
        kmin = k_min(t).k_min
        with mp.workdps(digits + 10):
            tt = mp.mpf(t)
            corrected = abs(oracle_theta_remainder(kmin, t, digits))
            assert corrected < mp.exp(-2 * mp.pi * tt) / 2 * (1 + 10 / tt), t
            standard = abs(
                oracle_theta(t, digits)
                - theta_series_value(t, kmin, digits, variant="standard")
            )
            scale = mp.exp(-mp.pi * tt) / 2
            assert 0.9 < float(standard / scale) < 1.1, t
