"""Command-line contract: schema, formats, exit codes, error records."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import pytest

from gammatheta.cli import EXIT_CODES, SCHEMA_VERSION
from gammatheta.errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    ResourceLimitError,
)

from conftest import run_cli


def parse_json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


# -- schema and round-tripping -------------------------------------------------


def test_exit_code_map_covers_the_four_error_classes():
    assert EXIT_CODES == {
        DomainError: 2,
        AccuracyError: 3,
        ResourceLimitError: 4,
        ConsistencyError: 5,
    }


def test_json_records_round_trip_byte_identically():
    result = run_cli("lngamma", "--re", "1", "--im", "0", "--terms", "8")
    assert result.code == 0
    assert result.err == ""
    (line,) = result.lines
    record = json.loads(line)
    assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["command"] == "lngamma"
    assert set(record) == {"schema_version", "command", "inputs", "outputs", "flags"}


def test_numbers_travel_as_decimal_strings():
    result = run_cli("lngamma", "--re", "1", "--im", "0", "--terms", "8")
    outputs = parse_json_lines(result.out)[0]["outputs"]
    for field in ("value_re", "value_im", "radius", "truncation_bound"):
        assert isinstance(outputs[field], str)
        float(outputs[field])  # parses as a number
    assert outputs["k_used"] == "8"
    assert outputs["shifts"] == "7"


def test_csv_format_matches_json_values_with_crlf_lines():
    args = ("theta", "--t", "1", "--format")
    js = parse_json_lines(run_cli(*args, "json").out)[0]
    csv_result = run_cli(*args, "csv")
    assert "\r\n" in csv_result.out
    rows = list(csv.reader(io.StringIO(csv_result.out)))
    header, data = rows[0], rows[1]
    # parsed JSON keys come back sorted; the CSV header keeps emit order
    assert set(header) == set(js["outputs"]) | {"flags"}
    assert header[-1] == "flags"
    for name, value in js["outputs"].items():
        assert data[header.index(name)] == value


# -- lngamma -----------------------------------------------------------------


def test_lngamma_reproduces_classic_values():
    record = parse_json_lines(
        run_cli("lngamma", "--re", "1", "--im", "0", "--terms", "8").out
    )[0]
    value = float(record["outputs"]["value_re"])
    radius = float(record["outputs"]["radius"])
    assert abs(value) <= radius

    record = parse_json_lines(run_cli("lngamma", "--re", "0.5", "--im", "0").out)[0]
    assert float(record["outputs"]["value_re"]) == pytest.approx(
        0.5 * math.log(math.pi), abs=1e-10
    )


def test_lngamma_half_switch_shifts_the_argument():
    record = parse_json_lines(
        run_cli("lngamma", "--re", "0.5", "--im", "0", "--half").out
    )[0]
    # half model at z = 0.5 evaluates lngamma(1) = 0
    assert abs(float(record["outputs"]["value_re"])) <= float(
        record["outputs"]["radius"]
    )


def test_lngamma_on_the_cut_exits_with_the_domain_code():
    result = run_cli("lngamma", "--re", "-2", "--im", "0")
    assert result.code == 2
    assert result.out == ""
    error = json.loads(result.err)
    assert error["error"]["type"] == "DomainError"
    assert error["flags"] == ["ERROR"]


def test_lngamma_terms_and_accuracy_conflict_is_a_domain_error():
    result = run_cli(
        "lngamma", "--re", "2", "--im", "0", "--terms", "4", "--accuracy", "1e-9"
    )
    assert result.code == 2
    assert json.loads(result.err)["error"]["type"] == "DomainError"


def test_theta_auto_is_a_usage_error():
    # The least-term index is the default, so there is no option to ask for it.
    for argv in (("--auto",), ("--terms", "5", "--auto")):
        with pytest.raises(SystemExit):
            run_cli("theta", "--t", "2", *argv)


def test_unattainable_accuracy_exits_with_the_accuracy_code():
    result = run_cli("lngamma", "--re", "2", "--im", "3", "--accuracy", "1e-300")
    assert result.code == 3
    assert json.loads(result.err)["error"]["type"] == "AccuracyError"


def test_unattainable_accuracy_left_of_the_axis_exits_with_the_accuracy_code():
    # the reflection halves the target; below the floor, even to 0.0, the
    # record quotes the caller's target
    for accuracy in ("5e-324", "1e-300"):
        result = run_cli("lngamma", "--re=-2.5", "--im", "1", "--accuracy", accuracy)
        assert result.code == 3
        error = json.loads(result.err)["error"]
        assert error["type"] == "AccuracyError"
        assert error["message"].startswith(f"target accuracy {float(accuracy):g} ")


def test_lngamma_where_the_modulus_overflows_exits_with_the_accuracy_code():
    # |z| overflows in the first two; at 2e305(1 + i) only the main terms' does
    for argv in (
        ["--re", "1.5e308", "--im", "1e308"],
        ["--re=-1.5e308", "--im=1e308"],
        ["--re", "2e305", "--im", "2e305"],
        ["--re=-2e305", "--im=2e305"],
    ):
        result = run_cli("lngamma", *argv)
        assert result.code == 3
        assert result.out == ""
        error = json.loads(result.err)["error"]
        assert error["type"] == "AccuracyError"
        assert "overflows double precision" in error["message"]


def test_theta_sum_that_overflows_exits_with_the_accuracy_code():
    # at t = 0.5 the sum of 110 terms is finite and only the bound overflows
    for t, terms in (("0.1", "200"), ("0.5", "110")):
        result = run_cli("theta", "--t", t, "--terms", terms)
        assert result.code == 3
        assert result.out == ""
        assert json.loads(result.err)["error"]["type"] == "AccuracyError"


def test_term_count_beyond_the_table_cap_exits_with_the_resource_code():
    result = run_cli("lngamma", "--re", "1", "--im", "0", "--terms", "1200")
    assert result.code == 4
    assert json.loads(result.err)["error"]["type"] == "ResourceLimitError"


def test_theta_beyond_the_least_term_cap_exits_with_the_resource_code():
    result = run_cli("theta", "--t", "400")
    assert result.code == 4
    assert result.out == ""
    assert json.loads(result.err)["error"]["type"] == "ResourceLimitError"


# -- theta ---------------------------------------------------------------------


def test_theta_auto_mode_reports_the_least_term_index():
    record = parse_json_lines(run_cli("theta", "--t", "1").out)[0]
    assert record["outputs"]["k_used"] == "4"
    assert record["outputs"]["variant"] == "arctan"


def test_theta_oddness_through_the_cli():
    pos = parse_json_lines(run_cli("theta", "--t", "5").out)[0]["outputs"]
    neg = parse_json_lines(run_cli("theta", "--t", "-5").out)[0]["outputs"]
    assert float(neg["value"]) == -float(pos["value"])
    assert float(pos["value"]) == pytest.approx(-3.45962037536346, abs=1e-9)


def test_theta_variants_are_selectable():
    for variant in ("standard", "arctan", "empirical"):
        record = parse_json_lines(
            run_cli("theta", "--t", "2", "--variant", variant).out
        )[0]
        assert record["outputs"]["variant"] == variant
    record = parse_json_lines(
        run_cli("theta", "--t", "2", "--variant", "empirical").out
    )[0]
    assert record["outputs"]["advisory_correction"] != "None"


# -- tables ---------------------------------------------------------------------


def test_table1_emits_the_pinned_constants():
    result = run_cli("table1", "--kmax", "50", "--digits", "6")
    rows = parse_json_lines(result.out)
    assert len(rows) == 50
    values = {row["outputs"]["k"]: row["outputs"]["c_k"] for row in rows}
    assert values["1"] == "0.072096"
    assert values["10"] == "0.109419"
    assert values["50"] == "0.112060"


def test_table1_bytes_at_full_range_and_precision_are_pinned():
    result = run_cli("table1", "--kmax", "100", "--digits", "30")
    digest = hashlib.sha256(result.out.encode()).hexdigest()
    assert digest == "ddf706952d23232274178edc9e43f7c7ac77424cd6039d147e3542006d5e80eb"


def test_table1_validates_kmax():
    assert run_cli("table1", "--kmax", "0").code == 2
    assert run_cli("table1", "--kmax", "101").code == 2


def test_table2_formats_the_documented_row():
    result = run_cli("table2", "--t-list", "10")
    row = parse_json_lines(result.out)[0]["outputs"]
    assert row["k_min"] == "32"
    assert row["A"] == "4.4e14"
    assert row["B"] == "10.0"
    assert row["C"] == "-0.50"
    assert row["D"] == "+8.3e-4"
    assert float(row["A_exact"]) == pytest.approx(4.4e14, rel=0.05)


def test_table2_rejects_nonpositive_heights():
    assert run_cli("table2", "--t-list", "0").code == 2


# -- scans -----------------------------------------------------------------------


def test_conjecture_scan_emits_samples_then_a_summary():
    result = run_cli(
        "scan", "--what", "conjecture", "--grid", "kmax=3", "--digits", "10"
    )
    rows = parse_json_lines(result.out)
    samples = [r for r in rows if r["outputs"]["record"] == "sample"]
    summaries = [r for r in rows if r["outputs"]["record"] == "summary"]
    assert len(samples) == 3 * 12
    assert len(summaries) == 1
    summary = summaries[0]["outputs"]
    assert summary["violations"] == "0"
    assert summary["samples"] == str(len(samples))
    assert float(summary["max_ratio"]) <= 1.0
    assert all("CONJECTURED" in r["flags"] for r in samples)


def test_conjecture_scan_grid_ceiling_yields_partial_output_and_code_4(monkeypatch):
    import gammatheta.cli as cli_module

    monkeypatch.setattr(cli_module, "MAX_CONJECTURE_KMAX", 2)
    result = run_cli(
        "scan", "--what", "conjecture", "--grid", "kmax=5", "--digits", "10"
    )
    assert result.code == 4
    rows = parse_json_lines(result.out)
    assert len([r for r in rows if r["outputs"]["record"] == "sample"]) == 2 * 12
    assert json.loads(result.err)["error"]["type"] == "ResourceLimitError"


def test_bounds_scan_covers_families_and_reports_winners():
    result = run_cli("scan", "--what", "bounds", "--grid", "k=1..2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.out)))
    header, data = rows[0], rows[1:]
    assert result.code == 0
    families = {row[header.index("family")] for row in data}
    assert families == {"stirling", "gauss", "theta"}
    # the pure-real rows at the before-k-th-term target are won by the
    # free sector bound
    for row in data:
        if (
            row[header.index("family")] == "stirling"
            and row[header.index("target")] == "before-k-th-term"
            and float(row[header.index("argument_im")]) == 0.0
            and float(row[header.index("argument_re")]) > 0.0
        ):
            assert row[header.index("winner")] == "whittaker-watson"
            assert float(row[header.index("normalized")]) == 1.0
    # one k: 19 grid points per family and 4 heights, at both targets
    single = run_cli("scan", "--what", "bounds", "--grid", "k=3")
    assert single.code == 0
    records = parse_json_lines(single.out)
    assert len(records) == 84
    assert {r["outputs"]["k"] for r in records} == {"3"}


def test_sharpness_scan_emits_one_record_per_spot(monkeypatch):
    monkeypatch.setattr("gammatheta.oracle.SHARPNESS_SPOTS", ((2, 5.0),))
    result = run_cli("scan", "--what", "sharpness")
    assert result.code == 0
    (record,) = parse_json_lines(result.out)
    assert record["inputs"] == {"what": "sharpness", "grid": "", "digits": "20"}
    outputs = record["outputs"]
    assert set(outputs) == {"k", "y", "ratio"}
    assert (outputs["k"], outputs["y"]) == ("2", "5.0")
    # the oracle's ratio at 20 digits, printed with all of them
    assert outputs["ratio"] == "0.011792886156716895848"


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--what", "bounds", "--grid", "k"),
        ("scan", "--what", "bounds", "--grid", "k=x"),
        ("scan", "--what", "bounds", "--grid", "k=0..2"),
        ("scan", "--what", "conjecture", "--grid", "kmax=abc"),
        ("scan", "--what", "conjecture", "--grid", "kmax=0"),
        ("table2", "--t-list", ",,"),
        ("table2", "--t-list", "1,x"),
        ("table1", "--digits", "31"),
    ],
    ids=[
        "grid-k", "grid-k=x", "grid-k=0..2", "grid-kmax=abc", "grid-kmax=0",
        "t-list-empty", "t-list-1,x", "table1-digits-31",
    ],
)
def test_malformed_grids_lists_and_digits_are_domain_error_records(argv):
    result = run_cli(*argv)
    assert result.code == 2
    assert result.out == ""
    error = json.loads(result.err)
    assert error["error"]["type"] == "DomainError"
    assert error["flags"] == ["ERROR"]


@pytest.mark.parametrize(
    "what, grid",
    [
        ("bounds", "K=1"),
        ("bounds", "k=1;kmax=3"),
        ("sharpness", "kmax=3"),
        ("conjecture", "k=1..2"),
    ],
)
def test_scan_grid_keys_the_scan_does_not_read_are_domain_errors(what, grid):
    result = run_cli("scan", "--what", what, "--grid", grid)
    assert result.code == 2
    assert result.out == ""
    error = json.loads(result.err)
    assert error["error"]["type"] == "DomainError"
    assert error["flags"] == ["ERROR"]


# -- global flags ------------------------------------------------------------------


def test_seedless_is_rejected_as_documented():
    # There is no randomized mode, so there is no option to turn it off.
    with pytest.raises(SystemExit):
        run_cli("theta", "--t", "1", "--seedless")


@pytest.mark.parametrize(
    "argv", [("lngamma", "--re", "6", "--im", "1"), ("theta", "--t", "1")]
)
def test_digits_is_a_usage_error_where_nothing_reads_it(argv):
    with pytest.raises(SystemExit):
        run_cli(*argv, "--digits", "5")


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        run_cli("frobnicate", "--t", "1")


def test_success_leaves_stderr_empty():
    result = run_cli("table1", "--kmax", "3")
    assert result.code == 0
    assert result.err == ""


# -- negative values in exponent form -----------------------------------------


def test_negative_values_in_exponent_form_are_values_not_options():
    result = run_cli("lngamma", "--re", "-1e-3", "--im", "-2.7e-07")
    assert result.code == 0
    record = parse_json_lines(result.out)[0]
    assert record["inputs"]["re"] == "-0.001"
    assert record["inputs"]["im"] == "-2.7e-07"
    # the echoed inputs feed straight back in
    inputs = record["inputs"]
    again = run_cli("lngamma", "--re", inputs["re"], "--im", inputs["im"])
    assert again.out == result.out

    theta = parse_json_lines(run_cli("theta", "--t", "-1.5e2").out)[0]["outputs"]
    assert float(theta["value"]) == -float(
        parse_json_lines(run_cli("theta", "--t", "150").out)[0]["outputs"]["value"]
    )


def test_error_records_keep_the_argv_as_given():
    result = run_cli("lngamma", "--re", "-1e-3", "--im", "0")
    assert result.code == 2
    error = json.loads(result.err)
    assert error["error"]["type"] == "DomainError"
    assert error["inputs"]["argv"] == "lngamma --re -1e-3 --im 0"

    result = run_cli("lngamma", "--re", "2", "--im", "1", "--accuracy", "-1e-9")
    assert result.code == 2
    assert json.loads(result.err)["inputs"]["argv"].endswith("--accuracy -1e-9")
