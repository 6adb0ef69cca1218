import functools

import pytest

from nfscatter.model import validate_scenario
from nfscatter.presets import gated_mirror_scenario, preset_scenario, single_pass_scenario
from nfscatter.solver import run_scenario


@functools.lru_cache(maxsize=None)
def _run_preset(name: str):
    scenario = validate_scenario(preset_scenario(name))
    traces, snapshots = run_scenario(scenario)
    return scenario, traces, snapshots


@functools.lru_cache(maxsize=None)
def _run_gated(**kwargs):
    scenario = validate_scenario(gated_mirror_scenario(**kwargs))
    traces, snapshots = run_scenario(scenario)
    return scenario, traces, snapshots


@pytest.fixture(scope="session")
def fig2a_run():
    return _run_preset("fig2a")


@pytest.fixture(scope="session")
def fig2b_run():
    return _run_preset("fig2b")


@pytest.fixture(scope="session")
def fig2c_run():
    return _run_preset("fig2c")


@pytest.fixture(scope="session")
def single_pass_run():
    scenario = validate_scenario(single_pass_scenario())
    traces, snapshots = run_scenario(scenario)
    return scenario, traces, snapshots


@pytest.fixture(scope="session")
def gated_run_factory():
    return _run_gated
