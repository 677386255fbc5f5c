"""Pinned content addresses: run fingerprints and stored spec JSON.

Every run in a store is keyed by :func:`repro.store.run_fingerprint`.
An edit that changes any byte of a spec's canonical JSON re-addresses
every stored run, so existing stores silently stop hitting.  The
digests below were computed with ``dataclasses.asdict`` serializing
the parameter objects, so they also pin that the flat field copy
renders the same bytes.  A change here must come with a
:data:`~repro.store.STORE_SCHEMA_VERSION` or
:data:`~repro.simulation.spec.SPEC_VERSION` bump.
"""

import dataclasses
import hashlib
import json
import typing

import pytest

from repro.attacks import AttackWindow, DoSJammingAttack
from repro.radar.link_budget import JammerParameters
from repro.radar.params import FMCWParameters
from repro.simulation import RunSpec
from repro.simulation.scenario import (
    DEFENSE_STRATEGIES,
    PANELS,
    DefenseConfig,
    panel_scenario,
)
from repro.simulation.spec import scenario_to_dict
from repro.store import STORE_SCHEMA_VERSION, run_fingerprint
from repro.vehicle.idm import IDMParameters
from repro.vehicle.params import ACCParameters

#: ``run_fingerprint`` of each panel at the paper seed, per strategy.
GOLDEN = {
    ("fig2a", "rls"): "052176f8d8fa0e6e7948fd29b32d2d93e31ff5f92ae820b197e3d880c0fdcf36",
    ("fig2a", "secure_reconstruction"): "6114bb5f8be8fad344526d17066e73ace721fc7e3066fef3184b10247268bda9",
    ("fig2a", "safety_filter"): "5a558cbc07f10611c50c424e6836f957a5b689419bc31b6d48b0662fa91b6e4f",
    ("fig2a", "combined"): "8769da7061cc4b593887eef44e7c4a15a39b7c9dcb1c4f26d6fbaeea7e7fa168",
    ("fig2b", "rls"): "167a62767e88a1a43274143eb21126d385e0664f1b1001d1c84b7c8c20fd0c07",
    ("fig2b", "secure_reconstruction"): "868924c16479fcec36a215e5daa4a0345af5768faef6b90aa2c37653e0f5c031",
    ("fig2b", "safety_filter"): "4e5da75158123820a6c9182c07aae6685719516b8690dce54463c156b2e061cd",
    ("fig2b", "combined"): "26d70b4f529de0bf9c58e31878dfa0d177a53fbb120455ca78059bd20681cc77",
    ("fig3a", "rls"): "1b1e9dd9aad83769a18b702d7a4ed25b6f7647f22765b0c4cab1df90093e1fb2",
    ("fig3a", "secure_reconstruction"): "b4d8b51aa1aaf681dccc894fe1879263befd28fbb2175d1e47fdec9216e5a99b",
    ("fig3a", "safety_filter"): "144d6dd3ab73a0472c1405a07ec5b3fa0f6521006d3f254f5ebe8ebe6e7697bd",
    ("fig3a", "combined"): "5c57339117ebfa8f4f8026169656cded2c6a8b4e8122af2f9f0f7ac1e4b40bdb",
    ("fig3b", "rls"): "ddebf87ea20f4a08c0367dd82fa1c9ec94df4a730a729e83e31dd560d3d99add",
    ("fig3b", "secure_reconstruction"): "21e07672f7217089cb055ca19255aa20a59e84639b9155c92008461dfddbbf2c",
    ("fig3b", "safety_filter"): "e75af4874dc5932d1e4ac718f41928fb9246d7a67db9b73b951376687abe35f8",
    ("fig3b", "combined"): "2621a6b533dc78bf994f38dcf9ca92a95cb9411e873e3c501466f7e74fc47c86",
}

#: ``run_fingerprint`` of fig2a with an IDM follower (``idm_params`` set).
GOLDEN_IDM = "faef0358f3842f7f8be2a863ff035c603f4bc944b5e20856ba4515dc419ff9e6"

#: SHA-256 of the ``spec_json`` column text (``json.dumps`` of
#: ``scenario_to_dict``, which keeps key order) of every spec above,
#: in ``GOLDEN`` order then the IDM spec, joined by newlines.
GOLDEN_SPEC_JSON = "1eec91a16154fed91b11c5e80436d25c043accebb7ff52a596705d6c39dfb3d5"

#: The parameter dataclasses ``scenario_to_dict`` serializes.
PARAMETER_CLASSES = (
    DefenseConfig,
    ACCParameters,
    FMCWParameters,
    IDMParameters,
    JammerParameters,
)

#: The field types a flat copy shares safely with the object.
SCALARS = (str, int, float, bool, type(None))


def _strategy_spec(panel, strategy):
    scenario = panel_scenario(panel)
    return RunSpec(
        scenario.with_overrides(
            defense=dataclasses.replace(scenario.defense, strategy=strategy)
        )
    )


def _idm_spec():
    return RunSpec(
        panel_scenario("fig2a").with_overrides(
            follower_policy="idm", idm_params=IDMParameters()
        )
    )


def test_golden_set_covers_every_panel_and_strategy():
    assert set(GOLDEN) == {(p, s) for p in PANELS for s in DEFENSE_STRATEGIES}
    assert STORE_SCHEMA_VERSION == 4


@pytest.mark.parametrize("panel, strategy", sorted(GOLDEN))
def test_panel_fingerprints_are_pinned(panel, strategy):
    assert run_fingerprint(_strategy_spec(panel, strategy)) == GOLDEN[panel, strategy]


def test_idm_fingerprint_is_pinned():
    assert run_fingerprint(_idm_spec()) == GOLDEN_IDM


def test_spec_json_bytes_are_pinned():
    specs = [_strategy_spec(*key) for key in GOLDEN] + [_idm_spec()]
    text = "\n".join(json.dumps(scenario_to_dict(spec.scenario)) for spec in specs)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SPEC_JSON


class TestFlatParameterCopy:
    """``scenario_to_dict`` copies parameter objects one level deep,
    which equals ``dataclasses.asdict`` only while every field is a
    plain scalar."""

    @pytest.mark.parametrize("cls", PARAMETER_CLASSES, ids=lambda c: c.__name__)
    def test_fields_are_plain_scalars(self, cls):
        hints = typing.get_type_hints(cls)
        defaults = cls()
        for field in dataclasses.fields(cls):
            kinds = typing.get_args(hints[field.name]) or (hints[field.name],)
            assert set(kinds) <= set(SCALARS), f"{cls.__name__}.{field.name}"
            assert type(getattr(defaults, field.name)) in SCALARS, field.name

    def test_sub_dicts_equal_asdict(self):
        scenario = panel_scenario("fig2a").with_overrides(idm_params=IDMParameters())
        spec = scenario_to_dict(scenario)
        assert spec["defense"] == dataclasses.asdict(scenario.defense)
        assert spec["acc_params"] == dataclasses.asdict(scenario.acc_params)
        assert spec["radar_params"] == dataclasses.asdict(scenario.radar_params)
        assert spec["idm_params"] == dataclasses.asdict(scenario.idm_params)
        assert spec["attack"]["jammer"] == dataclasses.asdict(scenario.attack.jammer)
        for key in ("defense", "acc_params", "radar_params", "idm_params"):
            assert list(spec[key]) == [f.name for f in dataclasses.fields(getattr(scenario, key))]

    def test_mutating_a_returned_dict_leaves_the_next_call_unchanged(self):
        scenario = panel_scenario("fig2a").with_overrides(
            idm_params=IDMParameters(),
            attack=DoSJammingAttack(AttackWindow(182.0, 300.0)),
        )
        expected = json.dumps(scenario_to_dict(scenario))
        spec = scenario_to_dict(scenario)
        for key in ("defense", "acc_params", "radar_params", "idm_params"):
            spec[key].clear()
        spec["attack"]["jammer"]["peak_power"] = -1.0
        assert json.dumps(scenario_to_dict(scenario)) == expected
