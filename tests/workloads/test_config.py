"""Declarative workload loading: schema validation with JSON-pointer
locations, YAML degradation, and mapping round-trips (ISSUE 8)."""

import json

import pytest

import repro.workloads.config as config
from repro.errors import ConfigError
from repro.workloads import ServerWorkloadSpec, from_mapping, load_file, loads
from repro.workloads.model import MAX_ARRAY_LENGTH


def minimal_doc(**overrides):
    """The smallest valid spec, mutated per test."""
    doc = {
        "name": "t",
        "tasks": [
            {
                "name": "get",
                "sites": [{"type": "small", "lifetime": "request"}],
            }
        ],
    }
    doc.update(overrides)
    return doc


def fail_pointer(doc):
    """Load ``doc`` expecting a ConfigError; return its message."""
    with pytest.raises(ConfigError) as excinfo:
        from_mapping(doc, source="spec")
    return str(excinfo.value)


def test_minimal_doc_loads():
    spec = from_mapping(minimal_doc())
    assert isinstance(spec, ServerWorkloadSpec)
    assert spec.name == "t"
    assert spec.tasks[0].sites[0].lifetime == "request"


# ----------------------------------------------------------------------
# The three distinct errors the issue names, each with its pointer
# ----------------------------------------------------------------------
def test_negative_arrival_rate_has_pointer():
    msg = fail_pointer(minimal_doc(arrival={"rate_rps": -5}))
    assert "spec:/arrival/rate_rps:" in msg
    assert "arrival rate must be > 0 requests/s (got -5)" in msg


def test_zero_task_weight_has_pointer():
    doc = minimal_doc()
    doc["tasks"][0]["weight"] = 0
    msg = fail_pointer(doc)
    assert "spec:/tasks/0/weight:" in msg
    assert "task weight must be > 0 (got 0)" in msg


def test_negative_site_weight_has_pointer():
    doc = minimal_doc()
    doc["tasks"][0]["sites"][0]["weight"] = -1
    msg = fail_pointer(doc)
    assert "spec:/tasks/0/sites/0/weight:" in msg
    assert "site weight must be > 0 (got -1)" in msg


def test_unknown_lifetime_class_has_pointer():
    doc = minimal_doc()
    doc["tasks"][0]["sites"][0]["lifetime"] = "forever"
    msg = fail_pointer(doc)
    assert "spec:/tasks/0/sites/0/lifetime:" in msg
    assert "unknown lifetime class 'forever'" in msg
    assert "request" in msg  # the error lists what *is* known


# ----------------------------------------------------------------------
# Other schema errors keep their locations too
# ----------------------------------------------------------------------
def test_reserved_lifetime_redefinition():
    msg = fail_pointer(minimal_doc(
        lifetimes={"request": {"lo_bytes": 1, "hi_bytes": 2}}))
    assert "spec:/lifetimes/request:" in msg
    assert "reserved" in msg


def test_unknown_top_level_field():
    msg = fail_pointer(minimal_doc(bogus=1))
    assert "spec:/bogus:" in msg
    assert "unknown field" in msg


def test_unknown_site_type():
    doc = minimal_doc()
    doc["tasks"][0]["sites"][0]["type"] = "blob"
    msg = fail_pointer(doc)
    assert "spec:/tasks/0/sites/0/type:" in msg


def test_wrong_kind_rejected():
    msg = fail_pointer(minimal_doc(kind="closed-loop"))
    assert "spec:/kind:" in msg


def test_array_length_beyond_frame_capacity():
    doc = minimal_doc()
    doc["tasks"][0]["sites"][0] = {
        "type": "refarr", "lifetime": "request",
        "length": [4, MAX_ARRAY_LENGTH + 1],
    }
    msg = fail_pointer(doc)
    assert "spec:/tasks/0/sites/0/length:" in msg
    assert "frame capacity" in msg


def test_session_slots_beyond_frame_capacity():
    msg = fail_pointer(minimal_doc(
        sessions={"slots": MAX_ARRAY_LENGTH + 1}))
    assert "spec:/sessions/slots:" in msg


def test_bad_duration():
    msg = fail_pointer(minimal_doc(duration_s=0))
    assert "spec:/duration_s:" in msg


def test_named_lifetimes_resolve():
    doc = minimal_doc(lifetimes={"idx": {"lo_bytes": 64, "hi_bytes": 256}})
    doc["tasks"][0]["sites"].append({"type": "node", "lifetime": "idx"})
    spec = from_mapping(doc)
    assert spec.lifetimes["idx"].hi_bytes == 256


# ----------------------------------------------------------------------
# Round trips and file loading
# ----------------------------------------------------------------------
def test_to_dict_round_trips():
    spec = from_mapping(minimal_doc(
        duration_s=0.25,
        arrival={"process": "bursty", "rate_rps": 700},
        lifetimes={"idx": {"lo_bytes": 64, "hi_bytes": 256}},
    ))
    assert from_mapping(spec.to_dict()) == spec


def test_load_json_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(minimal_doc()))
    assert load_file(path).name == "t"


def test_invalid_json_names_the_source(tmp_path):
    path = tmp_path / "w.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_file(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_file(tmp_path / "absent.json")


def test_unknown_suffix_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="suffix"):
        load_file(tmp_path / "w.toml")


def test_error_carries_file_path(tmp_path):
    path = tmp_path / "bad.json"
    doc = minimal_doc()
    doc["tasks"][0]["weight"] = -2
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as excinfo:
        load_file(path)
    assert str(path) in str(excinfo.value)
    assert "/tasks/0/weight" in str(excinfo.value)


# ----------------------------------------------------------------------
# YAML: optional extra, graceful degradation
# ----------------------------------------------------------------------
def test_yaml_loads_when_available():
    if config._yaml is None:
        pytest.skip("PyYAML not installed")
    spec = loads("name: t\ntasks:\n  - name: get\n    sites:\n"
                 "      - {type: small, lifetime: request}\n",
                 format="yaml")
    assert spec.name == "t"


def test_yaml_missing_degrades_with_clear_error(tmp_path, monkeypatch):
    monkeypatch.setattr(config, "_yaml", None)
    path = tmp_path / "w.yaml"
    path.write_text("name: t\n")
    with pytest.raises(ConfigError, match=r"repro\[workloads\]"):
        load_file(path)
    # JSON keeps working with the YAML backend absent
    jpath = tmp_path / "w.json"
    jpath.write_text(json.dumps(minimal_doc()))
    assert load_file(jpath).name == "t"


def test_loads_string_yaml_missing(monkeypatch):
    monkeypatch.setattr(config, "_yaml", None)
    with pytest.raises(ConfigError, match="YAML workload files need PyYAML"):
        loads("name: t\n", format="yaml")
    # the JSON path is untouched by the missing backend
    assert loads(json.dumps(minimal_doc()), format="json").name == "t"


# ----------------------------------------------------------------------
# Non-finite numbers: Python's json reads Infinity / NaN, the schema not
# ----------------------------------------------------------------------
@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("field, pointer", [
    ('"duration_s": {}', "spec:/duration_s:"),
    ('"arrival": {{"rate_rps": {}}}', "spec:/arrival/rate_rps:"),
    ('"cache": {{"ttl_s": [0.1, {}]}}', "spec:/cache/ttl_s:"),
], ids=["duration_s", "rate_rps", "ttl_s"])
def test_non_finite_number_is_rejected_with_pointer(field, pointer, literal):
    text = json.dumps(minimal_doc())[:-1] + ", " + field.format(literal) + "}"
    with pytest.raises(ConfigError, match="finite") as excinfo:
        loads(text, source="spec")
    assert pointer in str(excinfo.value)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_constructors_reject_non_finite_rate_and_duration(value):
    from repro.workloads.model import ArrivalSpec

    spec = from_mapping(minimal_doc())
    with pytest.raises(ConfigError, match="finite"):
        ArrivalSpec(rate_rps=value)
    with pytest.raises(ConfigError, match="finite"):
        spec.with_rate(value)
    with pytest.raises(ConfigError, match="finite"):
        spec.with_duration(value)
