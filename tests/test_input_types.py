"""Every input file is read by one typed decoder, `errors.from_json`.

The rules are checked on a small dataclass; then generated scenario and
topology files get one value, top-level or nested, replaced by a value of the
wrong JSON type, and the loader must refuse the file with a ConfigError that
names where the value sits.
"""

from __future__ import annotations

import json
import math
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_file_formats import scenarios, topologies
from tradesim.cluster import load_topology, save_topology
from tradesim.errors import ConfigError, from_json, json_value
from tradesim.workload import load_scenario, save_scenario


@dataclass(frozen=True)
class Inner:
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigError(f"n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class Sample:
    i: int
    f: float
    s: str = "x"
    b: bool = False
    many: tuple[int, ...] = ()
    pair: tuple[int, float] = (0, 0.0)
    inner: Inner | None = None


VALID = {"i": 1, "f": 2, "s": "y", "b": True, "many": [1, 2], "pair": [3, 4.5], "inner": {"n": 5}}


class TestRules:
    def test_values_pass_on_and_lists_and_objects_are_built(self):
        got = from_json(Sample, VALID, "sample")
        assert got == Sample(1, 2, "y", True, (1, 2), (3, 4.5), Inner(5))
        assert type(got.f) is int  # an int is a number and stays an int

    def test_null_for_an_optional_field_and_defaults_for_omitted_keys(self):
        assert from_json(Sample, {"i": 1, "f": 0.5, "inner": None}, "sample") == Sample(1, 0.5)

    def test_unknown_top_level_key_is_ignored(self):
        assert from_json(Sample, {**VALID, "retired": 1}, "sample") == from_json(Sample, VALID, "sample")

    @pytest.mark.parametrize("key, value, loc", [
        ("i", True, "i"), ("i", 1.5, "i"), ("i", 1.0, "i"), ("i", "1", "i"), ("i", None, "i"),
        ("f", True, "f"), ("f", "1", "f"), ("f", math.nan, "f"), ("f", math.inf, "f"),
        ("f", -math.inf, "f"), ("f", 10**400, "f"), ("f", [1.0], "f"),
        ("s", 5, "s"), ("s", None, "s"), ("b", 0, "b"), ("b", "no", "b"),
        ("many", 5, "many"), ("many", [1, "2"], "many[1]"), ("many", [1, 2.0], "many[1]"),
        ("pair", [1], "pair"), ("pair", [1, 2.0, 3], "pair"), ("pair", [1, "x"], "pair[1]"),
        ("inner", [], "inner"), ("inner", {"n": 1, "extra": 2}, "inner"), ("inner", {}, "inner"),
        ("inner", {"n": 1.5}, "inner.n"),
    ])
    def test_wrong_value_is_config_error_naming_the_file_and_key(self, key, value, loc):
        with pytest.raises(ConfigError, match="^" + re.escape(f"sample file: '{loc}' ")):
            from_json(Sample, {**VALID, key: value}, "sample file")

    def test_missing_required_key_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^sample file lacks \['i'\]$"):
            from_json(Sample, {"f": 1.0}, "sample file")

    def test_not_an_object_is_config_error(self):
        with pytest.raises(ConfigError, match="^sample file must be a JSON object"):
            from_json(Sample, [VALID], "sample file")

    def test_a_dataclass_check_names_the_file(self):
        with pytest.raises(ConfigError, match="^sample file: n must be >= 0"):
            from_json(Sample, {**VALID, "inner": {"n": -1}}, "sample file")

    def test_given_fields_are_set_as_given(self):
        marker = object()
        got = from_json(Sample, {**VALID, "s": 5}, "sample", s=marker)
        assert got.s is marker

    def test_one_value(self):
        assert json_value(float, 3, "option 'x'") == 3
        assert json_value(str | None, None, "option 'x'") is None
        with pytest.raises(ConfigError, match="^option 'x' must be of type int, got 3.0$"):
            json_value(int, 3.0, "option 'x'")


# --- generated files with one wrongly typed value ------------------------------------


def slots(value, path=()):
    """Every (path, value) in a JSON value, containers included, outermost first."""
    if path:
        yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from slots(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from slots(item, (*path, index))


def wrong_values(value, optional: bool) -> list:
    """JSON values of another type than `value`'s field takes."""
    kinds = {bool: [0, "no", [], {}], int: [True, 1.5, "1", [1], {}],
             float: [False, "1.0", [1.0], {}], str: [5, True, ["x"], {}],
             list: [5, "x", {}, True], dict: [[], 5, "x", False], type(None): [5, [], "x"]}
    return kinds[type(value)] + ([] if optional or value is None else [None])


def location(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def check_refused(value, save, load, data) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        save(value, path)
        content = json.loads(path.read_text())
        where, old = data.draw(st.sampled_from(list(slots(content))))
        wrong = data.draw(st.sampled_from(wrong_values(old, optional=where == ("ramp",))))
        target = content
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = wrong
        path.write_text(json.dumps(content))
        with pytest.raises(ConfigError) as refused:
            load(path)
    assert f"{location(where)!r}" in str(refused.value)
    assert "input.json" in str(refused.value)


@given(scenarios(), st.data())
def test_scenario_with_a_wrongly_typed_value_is_refused(scenario, data):
    check_refused(scenario, save_scenario, load_scenario, data)


@given(topologies(), st.data())
def test_topology_with_a_wrongly_typed_value_is_refused(topology, data):
    check_refused(topology, save_topology, load_topology, data)


def test_slots_cover_nested_values():
    paths = [p for p, _ in slots({"a": [[0, 1.0]], "b": {"c": 1}})]
    assert paths == [("a",), ("a", 0), ("a", 0, 0), ("a", 0, 1), ("b",), ("b", "c")]
