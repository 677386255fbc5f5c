"""Pinned content addresses: run fingerprints and stored spec JSON.

Every run in a store is keyed by :func:`repro.store.run_fingerprint`.
An edit that changes any byte of a spec's canonical JSON re-addresses
every stored run, so existing stores silently stop hitting.  The
``spec_json`` digest below was computed with ``dataclasses.asdict``
serializing the parameter objects, so it also pins that the flat field
copy renders the same bytes; the run fingerprints were last
regenerated for a schema bump with that digest unchanged.  A change
here must come with a
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
    ("fig2a", "rls"): "4017c198a9c694420e9a4f7813158a1ffe5e54fba4f2e4ac741c35b0eba268e5",
    ("fig2a", "secure_reconstruction"): "d10562f8a63845506b33e5cbe2dd7873170d463f2d9a361479cacca4146dec4b",
    ("fig2a", "safety_filter"): "6634ab1dd8af637e84fec3ef14720183503221414c2a5b13c9884620699211b3",
    ("fig2a", "combined"): "c100f8ab87226128c4539d00e2a7a2f4f46e73a509ba2cf292084476efdd665d",
    ("fig2b", "rls"): "aa6a4dd90b5f2e2ab9dd41057599619bc0129e5f4157ad6faa98cfda87bd39f6",
    ("fig2b", "secure_reconstruction"): "3cbdf1339c52ccc5cbe01853eb001b54293e92210fb288ea900b66a332cc81fd",
    ("fig2b", "safety_filter"): "40e6318abd07e04ba4abfcf3690b2a12f987d4d396e4945f13e08b4e2839e482",
    ("fig2b", "combined"): "fe64dfb4b045b112adafc5f13c893f4b8635fc8066ff89fc8dffeedba8af6e52",
    ("fig3a", "rls"): "8182fcf0f5fb3755c2b256c89892c8454a79dcd9964ea9cec7c72aa258c8969d",
    ("fig3a", "secure_reconstruction"): "0dc11c9bd80f356fb8b8bce623c386494d0a406975a58845d11dde5a3103d7af",
    ("fig3a", "safety_filter"): "824ca0f845cd387be154d245172fce2c54cc08c8a9da3530bfc44796b0d5e481",
    ("fig3a", "combined"): "0e81d876998e5053ddb09e812a0b3ee4c564bb201756b9defbaa959c4fcd056d",
    ("fig3b", "rls"): "d9ae3582c79402c310624e36e17ded62234a2db8c9ded22fff286102094ac5da",
    ("fig3b", "secure_reconstruction"): "650c6566e019f316f121c52030018fa2e176e0d4338d1fcdd12810aadbe0e571",
    ("fig3b", "safety_filter"): "8b6c16aa0f3767e92792e48dbbec833177cf98f94d0176d3c14b1dd1b92db456",
    ("fig3b", "combined"): "2967ed09adfc697fa9ac030bbc404adf797d85deb6e1450330718af1b7b1a470",
}

#: ``run_fingerprint`` of fig2a with an IDM follower (``idm_params`` set).
GOLDEN_IDM = "d794c0307fb693735baa9724b4e7e82726757205717b1586943627d4799b2573"

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
    assert STORE_SCHEMA_VERSION == 6


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
