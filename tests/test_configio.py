import json
import re

import pytest

from nfscatter import validate_scenario
from nfscatter.configio import ConfigError, apply_overrides, load_config, scenario_from_dict
from nfscatter.presets import PRESETS, preset_scenario

GAMMA = 1.0 / 141.1


def fig2a_dict():
    return validate_scenario(preset_scenario("fig2a")).as_dict()


def test_round_trip_preserves_hash():
    sc = validate_scenario(preset_scenario("fig2a"))
    again = validate_scenario(scenario_from_dict(sc.as_dict()))
    assert again.config_hash == sc.config_hash


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_round_trip_every_preset(name):
    sc = preset_scenario(name)
    again = validate_scenario(scenario_from_dict(sc.as_dict()))
    assert again.config_hash == validate_scenario(sc).config_hash


def test_delta_b_in_gamma_key():
    data = fig2a_dict()
    data["schedule"] = {
        "initial_level_in_gamma": 30.0,
        "events": [
            {"t": 22.165, "action": "off"},
            {"t": 100.0, "action": "on", "level_in_gamma": 30.0},
        ],
    }
    sc = validate_scenario(scenario_from_dict(data))
    assert sc.schedule.level_at(0.0) == pytest.approx(30.0 * GAMMA)
    assert sc.schedule.level_at(150.0) == pytest.approx(30.0 * GAMMA)


def test_level_and_gamma_key_conflict():
    data = fig2a_dict()
    data["schedule"] = {
        "initial_level": 0.2,
        "events": [{"t": 5.0, "action": "set", "level": 0.1, "level_in_gamma": 10.0}],
    }
    with pytest.raises(ConfigError, match="not both"):
        scenario_from_dict(data)


def test_unknown_key_rejected():
    data = fig2a_dict()
    data["sample"]["density"] = 5.0
    with pytest.raises((ConfigError, TypeError)):
        scenario_from_dict(data)


@pytest.mark.parametrize("section", ["sample", "pulse", "mirror", "schedule"])
def test_section_must_be_object(section):
    data = fig2a_dict()
    data[section] = 5
    with pytest.raises(ConfigError, match=section):
        scenario_from_dict(data)


def test_load_config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(fig2a_dict()))
    sc = validate_scenario(load_config(path))
    assert sc.t_end == 200.0


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_overrides():
    data = fig2a_dict()
    out = apply_overrides(data, ["sample.xi=0.5", "mirror.reflectivity=0.9", "dt=0.01"])
    assert out["sample"]["xi"] == 0.5
    assert out["mirror"]["reflectivity"] == 0.9
    assert out["dt"] == 0.01
    assert data["sample"]["xi"] == 1.0  # original untouched


def test_override_requires_equals():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["xi:0.5"])


def test_int_and_float_spellings_hash_alike():
    data = fig2a_dict()
    hashes = set()
    for xi in (1, 1.0):
        data["sample"]["xi"] = xi
        hashes.add(validate_scenario(scenario_from_dict(data)).config_hash)
    assert len(hashes) == 1


@pytest.mark.parametrize("events, field", [
    ([{"action": "off"}], "schedule.events[0].t"),
    ([{"t": 5.0, "action": "off"}, {"t": 6.0}], "schedule.events[1].action"),
    (5, "schedule.events"),
    ([{"t": 5.0, "action": None}], "schedule.events[0].action"),
    ([{"t": 5.0, "action": ["off"]}], "schedule.events[0].action"),
])
def test_malformed_event_names_field(events, field):
    data = fig2a_dict()
    data["schedule"] = {"initial_level": 0.2, "events": events}
    with pytest.raises(ConfigError, match=re.escape(field)):
        scenario_from_dict(data)
