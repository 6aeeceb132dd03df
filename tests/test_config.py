"""Input files through the typed readers of `scrubsim.config`: a fuzz over
every field of small fixtures, run through the CLI, and a guard that keeps
the readers and writers in that one module."""

import ast
import copy
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from scrubsim.cli import main

SCENARIO = {
    "version": 1, "epochs": 2, "budget_gbps": 20.0, "adversary": "randhybrid",
    "estimator": "fpl", "seed": 1, "seeds": [3], "gamma": 1.25, "topology_nodes": 8,
    "dc_slots": 200, "topology_path": None, "graphs_path": None,
    "cost": {"alpha": 1.0, "intra_unit_cost": 1.0, "inter_unit_cost": 5.0, "beta": 1.0},
}
TOPOLOGY = {
    "pops": ["a", "b", "c"],
    "dcs": [{"link_capacity_gbps": 40.0, "racks": [[4, 4], [4]], "attach_pop": 1}],
    "latency": [[10.0], [0.0], [10.0]],
    "links": [[0, 1, 100.0], [1, 2, 100.0]],
}
LIBRARY = {"graphs": [{
    "attack": {"id": 0, "name": "flood"},
    "bidirectional": True,
    "nodes": [
        {"id": 0, "name": "a_flood", "kind": "analysis", "capacity_gbps": 5.0, "contexts": 2,
         "delivers": False},
        {"id": 1, "name": "r_drop", "kind": "response", "capacity_gbps": 10.0, "contexts": 1,
         "delivers": False},
        {"id": 2, "name": "r_forward", "kind": "response", "capacity_gbps": 10.0, "contexts": 1,
         "delivers": True},
    ],
    "edges": [{"from": 0, "to": 1, "weight": 0.5}, {"from": 0, "to": 2, "weight": 0.5}],
}]}
TRAFFIC = {"traffic": [[2.0], [0.0], [1.5]]}
SERIES = [[40.0, 20.0], [80.0, 40.0]]

ORCH_RULES = ["orch", "rules", "--topo", "{topology}", "--traffic", "{traffic}",
              "--graphs", "{library}", "--out", "{out}"]
# Each fixture and the command that reads it. The command reads the file
# named by the fixture's own placeholder, and the intact files of the others.
FIXTURES = {
    "scenario": (SCENARIO, ["simulate", "--scenario", "{scenario}", "--out-dir", "{out}"]),
    "topology": (TOPOLOGY, ORCH_RULES),
    "library": (LIBRARY, ORCH_RULES),
    "traffic": (TRAFFIC, ORCH_RULES),
    "series": (SERIES, ["compare", "provisioning", "--series", "{series}"]),
}
VALUES = [True, "5", "", 2.5, float("nan"), float("inf"), float("-inf"), None, [1], {},
          {"a": 1}]


def paths(value, prefix=()):
    """The path of `value` and of everything inside it, containers included."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from paths(item, (*prefix, key))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    at(doc, path[:-1])[path[-1]] = value
    return doc


def spelled(doc, path, text):
    """The JSON text of `doc` with the value at `path` spelled as `text`."""
    mark = "@spelled@"
    return json.dumps(replaced(doc, path, mark)).replace(json.dumps(mark), text)


def run(name, doc, tmp, text=None):
    """Run `name`'s command with `doc`, or the JSON `text` when given, as its
    file; every other input is the intact fixture."""
    files = {"out": f"{tmp}/{name}.out"}
    for other, (fixture, _args) in FIXTURES.items():
        files[other] = f"{tmp}/{other}.json"
        Path(files[other]).write_text(json.dumps(doc if other == name else fixture))
    if text is not None:
        Path(files[name]).write_text(text)
    return CliRunner().invoke(main, [a.format(**files) for a in FIXTURES[name][1]])


@settings(derandomize=True, max_examples=len(FIXTURES) * len(VALUES), database=None)
@given(name=st.sampled_from(list(FIXTURES)), value=st.sampled_from(VALUES))
def test_every_field_refuses_another_kind(name, value):
    """Each example puts `value` at every path of one fixture in turn. A
    derandomized search exhausts the (fixture, value) pairs within
    `max_examples`, so every field meets every value. A run exits 0, 2 or 3
    and never with a traceback; exit 2 comes with an `error:` line; and a
    value of another kind than the fixture's (int and float count as two)
    exits 2."""
    fixture = FIXTURES[name][0]
    with tempfile.TemporaryDirectory() as tmp:
        for path in paths(fixture):
            res = run(name, replaced(fixture, path, value), tmp)
            where = f"{name} {list(path)} = {value!r}: exit {res.exit_code}, {res.output!r}"
            assert res.exception is None or isinstance(res.exception, SystemExit), where
            assert res.exit_code in (0, 2, 3), where
            if res.exit_code == 2:
                assert "error: " in res.output, where
            if type(value) is not type(at(fixture, path)):
                assert res.exit_code == 2, where


@pytest.mark.parametrize("name", FIXTURES)
def test_every_object_refuses_an_unknown_key(tmp_path, name):
    """The intact fixture runs, and one unknown key in any of its objects,
    or its first key given twice with the same value, is an error that
    names the key."""
    fixture = FIXTURES[name][0]
    res = run(name, fixture, tmp_path)
    assert res.exit_code == 0, res.output
    objects = [path for path in paths(fixture) if isinstance(at(fixture, path), dict)]
    assert objects or name == "series"
    for path in objects:
        res = run(name, replaced(fixture, path, {**at(fixture, path), "bogus": 1}), tmp_path)
        assert res.exit_code == 2, (path, res.output)
        assert "unknown key 'bogus'" in res.output, (path, res.output)
        obj = at(fixture, path)
        key = next(iter(obj))
        twice = f"{json.dumps(obj)[:-1]}, {json.dumps(key)}: {json.dumps(obj[key])}}}"
        res = run(name, fixture, tmp_path, text=spelled(fixture, path, twice))
        assert res.exit_code == 2, (path, res.output)
        assert f"repeats key {key!r}" in res.output, (path, res.output)


@pytest.mark.parametrize("name", FIXTURES)
def test_undecodable_json_names_the_file(tmp_path, name):
    """Nesting deeper than the decoder recurses, and an integer longer than
    Python converts, exit 2 naming the file: the whole file nested 100 000
    lists deep, and the fixture's first number given 5 000 digits."""
    fixture = FIXTURES[name][0]
    number = next(path for path in paths(fixture) if type(at(fixture, path)) in (int, float))
    for text in ("[" * 100_000 + "]" * 100_000, spelled(fixture, number, "1" * 5_000)):
        res = run(name, fixture, tmp_path, text=text)
        assert res.exit_code == 2, (text[:20], res.output)
        assert isinstance(res.exception, SystemExit), (text[:20], res.exception)
        assert res.output.startswith("error: ") and f"{tmp_path}/{name}.json: " in res.output


# The calls besides `open` that read or write a file or spell its JSON.
FILE_CALLS = {("json", "load"), ("json", "loads"), ("json", "dump"), ("json", "dumps"),
              ("csv", "writer"), ("os", "makedirs")}


def test_readers_stay_in_one_place():
    """No scrubsim module imports another's private name, and only
    `config` reads or writes a file or spells JSON."""
    problems = []
    for source in sorted((Path(__file__).parents[1] / "src" / "scrubsim").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "scrubsim"
                                                     or node.module.startswith("scrubsim.")):
                problems += [f"{source.name}:{node.lineno} imports {alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
            if source.name == "config.py":
                continue
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in FILE_CALLS):
                problems.append(f"{source.name}:{node.lineno} calls "
                                f"{node.value.id}.{node.attr}")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                problems.append(f"{source.name}:{node.lineno} calls open")
    assert problems == []
