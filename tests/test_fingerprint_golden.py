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
    ("fig2a", "rls"): "600620c0235624e90bc0322cf634ca338acedee62d86fba20f6b7d5863b00421",
    ("fig2a", "secure_reconstruction"): "6022b88d08470f14df08b5173c9570184b67bcfd84b878c1a52fd033896b20c0",
    ("fig2a", "safety_filter"): "31751d5ad2c03f7ba80cb2052051fdb8c347ef4f4a83dc14c5abcc9b0defa767",
    ("fig2a", "combined"): "ee3fe305370dbe00b8ea69efe5112f4c85ce33c0ac06d6ca4ba3f6e66923d8cc",
    ("fig2b", "rls"): "28278bdecb9067493191c4477b31ab27586e8924b884506e8c77bf4e2adabd74",
    ("fig2b", "secure_reconstruction"): "ff2efafeeab710c70d3a68b513e7c3fb6e98ba0f525a59e9d80a65e01a7e8aa4",
    ("fig2b", "safety_filter"): "e7d24e7ee195f4a056a2bbddbc1f5f38b42613867515ecf86647741dbdfa45d3",
    ("fig2b", "combined"): "4e658827a904b87212d6c850c1f08ea0d2d8ea20cebc0f75757ffe8f93655526",
    ("fig3a", "rls"): "644455498b2d23dc40739a0364c19493169389f56ec91c8509d1608be9e83ab3",
    ("fig3a", "secure_reconstruction"): "d14aca4a4f23759bfafc6c27d243f51cf2b27bc959e2b14b1cfe2ebe5d6a74fd",
    ("fig3a", "safety_filter"): "d28bc660b24a3b1032bf164caaffb1d5cc3d9579e917accef19f78c46605c3e7",
    ("fig3a", "combined"): "2b8df54a1981b892adaf711a2f9184a17e75002163587655fdc1c21a2ccf2be3",
    ("fig3b", "rls"): "0a3b798100aa1c69b243efe787fc01a49c0f67e275c2aea91e01370d3cd7878e",
    ("fig3b", "secure_reconstruction"): "49539b0d9d6f3f2fa2054dc235ce5ca779b681da3a5a086aeb9336b2bbce69cc",
    ("fig3b", "safety_filter"): "59175fd8c15c0692db968fca2ffda3622441c5defb49c2b0382112a59a94b05f",
    ("fig3b", "combined"): "b15da8f97d2050ef215e37222eb1f10d0970e361c50804071de5ebfc65c95a44",
}

#: ``run_fingerprint`` of fig2a with an IDM follower (``idm_params`` set).
GOLDEN_IDM = "333d75ce1bdf94e261f9399405a5f1871a29782cd5d07a282e2d4a4dd968d9c5"

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
    assert STORE_SCHEMA_VERSION == 5


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
