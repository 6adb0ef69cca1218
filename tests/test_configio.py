import json
import re
from pathlib import Path

import pytest

from nfscatter import ScenarioConfig, Segment, validate_scenario
from nfscatter.configio import ConfigError, apply_overrides, load_config, scenario_from_dict
from nfscatter.presets import PRESETS, preset_scenario


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


def test_absent_dt_is_the_default():
    # a config file without dt runs at ScenarioConfig's default, as the presets do
    data = fig2a_dict()
    del data["dt"]
    assert scenario_from_dict(data).dt == ScenarioConfig.dt == 0.02


def test_absent_schedule_is_field_off():
    data = fig2a_dict()
    del data["schedule"]
    sc = validate_scenario(scenario_from_dict(data))
    assert sc.schedule.segments == (Segment(0.0, 0.0),)


def test_readme_example_is_fig2b():
    # the README's configuration example is fig2b written out, levels in rad/ns
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"## Configuration\n.*?```json\n(.*?)```", readme, re.S).group(1)
    sc = validate_scenario(scenario_from_dict(json.loads(example)))
    assert sc.config_hash == validate_scenario(preset_scenario("fig2b")).config_hash


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


@pytest.mark.parametrize("segments, field", [
    (5, "schedule.segments"),
    ([[0.0]], "schedule.segments[0]"),
    ([[0.0, 0.2], [5.0, 0.1, 1.0]], "schedule.segments[1]"),
    ([{"t_start": 0.0, "delta_b": 0.2}], "schedule.segments[0]"),
], ids=["not_a_list", "short_pair", "long_pair", "object"])
def test_malformed_segments_name_field(segments, field):
    data = fig2a_dict()
    data["schedule"] = {"segments": segments}
    with pytest.raises(ConfigError, match=re.escape(field)):
        scenario_from_dict(data)
