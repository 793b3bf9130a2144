"""Tests for the bench registry's gates (:mod:`repro.bench`) and its script.

Every gate is driven across its limit on a copy of the checked-in
BENCH_sim.json: at the limit it holds, just past the limit it fires, and
no other gate's verdict changes.  ``scripts/bench.py`` runs with each
entry's run function replaced by one that returns a section of that
report, so no simulation runs here.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import bench

REPO = Path(__file__).resolve().parents[1]
REPORT = json.loads((REPO / "BENCH_sim.json").read_text())
NAMES = list(bench.ENTRIES)
HARD = {"skew.deterministic", "skew.violations", "fuzz.deterministic",
        "fuzz.violations_found"}


# Setters drive every value a gate measures, so at the limit the whole
# gate holds even where the checked-in report already fires it.


def _figures_vs(baseline):
    """Set every figure's events/s to a fraction of ``baseline``'s."""
    base = json.loads((REPO / "benchmarks" / baseline).read_text())

    def set_ratio(report, ratio):
        for figure, stats in report["figures"]["figures"].items():
            stats["events_per_sec"] = \
                ratio * base["figures"][figure]["events_per_sec"]
    return set_ratio


def _set(*path):
    def setter(report, value):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return setter


def _set_publish_ops(report, value):
    for point in report["scale"]["points"]:
        for sweep in point["publish_sweep"]:
            sweep["publishes_per_sec"] = value


def _set_frontend_speedup(report, value):
    for point in report["scale"]["points"]:
        point["frontend_speedup_vs_linear"] = value


def _set_violations(report, value):
    for stats in report["skew"]["arms"].values():
        stats["violations"] = value


#: gate -> (setter, value at the limit, value just past it).  The values
#: pin every gate's limit and direction.
CASES = {
    "figures.events_per_sec_vs_baseline": (
        _figures_vs("baseline_sim.json"), 0.85 + 1e-9, 0.85 - 1e-9),
    "figures.events_per_sec_vs_noobs": (
        _figures_vs("baseline_noobs.json"), 0.98 + 1e-9, 0.98 - 1e-9),
    "scale.publish_ops": (_set_publish_ops, 500, 499.99),
    "scale.frontend_speedup": (_set_frontend_speedup, 10, 9.99),
    "fluid.users_per_sec": (
        _set("fluid", "scale", "users_per_sec"), 100_000, 99_999.9),
    "fluid.under_event_fig18_wall": (
        _set("fluid", "scale", "under_event_fig18_wall"), True, False),
    "skew.sm_p99_advantage": (_set("skew", "sm_p99_advantage"), 1.3, 1.299),
    "skew.sm_imbalance_advantage": (
        _set("skew", "sm_imbalance_advantage"), 1.0, 0.999),
    "skew.deterministic": (_set("skew", "deterministic"), True, False),
    "skew.violations": (_set_violations, 0, 1),
    "fuzz.specs_per_sec": (_set("fuzz", "specs_per_sec"), 5, 4.99),
    "fuzz.deterministic": (_set("fuzz", "deterministic"), True, False),
    "fuzz.violations_found": (_set("fuzz", "violations_found"), 0, 1),
}


def _section_of(gate_name):
    return gate_name.split(".")[0]


def _perturbed(gate_name, which):
    setter, at_limit, past_limit = CASES[gate_name]
    report = copy.deepcopy(REPORT)
    setter(report, at_limit if which == "at" else past_limit)
    return report


def _fired(verdicts):
    return {name for name, verdict in verdicts.items() if verdict["fired"]}


def test_every_gate_has_a_case_and_pinned_severity():
    gates = {gate.name: gate for entry in bench.ENTRIES.values()
             for gate in entry.gates}
    assert set(gates) == set(CASES)
    assert {name for name, gate in gates.items() if gate.hard} == HARD
    assert all(_section_of(gate.name) == entry.name
               for entry in bench.ENTRIES.values() for gate in entry.gates)


@pytest.mark.parametrize("gate_name", sorted(CASES))
def test_gate_fires_just_past_its_limit_and_alone(gate_name):
    at = bench.evaluate(_perturbed(gate_name, "at"), NAMES)
    past = bench.evaluate(_perturbed(gate_name, "past"), NAMES)
    assert not at[gate_name]["fired"]
    assert past[gate_name]["fired"]
    assert _fired(past) - _fired(at) == {gate_name}
    assert _fired(at) - _fired(past) == set()
    assert past[gate_name]["hard"] == (gate_name in HARD)


def test_unperturbed_report_fires_no_hard_gate():
    verdicts = bench.evaluate(REPORT, NAMES)
    assert not any(v["hard"] and v["fired"] for v in verdicts.values())
    assert bench.exit_code(verdicts) == 0


def test_checked_in_verdicts_are_current():
    """The report's ``gates`` key is what the evaluator says today, so
    soft gates that fired when it was recorded stay visible."""
    recorded = {name: v["fired"] for name, v in REPORT["gates"].items()}
    assert recorded == {name: v["fired"]
                        for name, v in bench.evaluate(REPORT, NAMES).items()}


@pytest.mark.parametrize("name", NAMES)
def test_missing_section_is_reported_not_skipped(name):
    report = {key: value for key, value in REPORT.items() if key != name}
    verdicts = bench.evaluate(report, [name])
    assert set(verdicts) == {gate.name for gate in bench.ENTRIES[name].gates}
    for verdict in verdicts.values():
        assert verdict["fired"]
        assert verdict["failed"] == [f"no `{name}` section"]


def test_unreadable_or_empty_section_fires():
    report = copy.deepcopy(REPORT)
    del report["skew"]["arms"]["sm"]["violations"]
    report["scale"]["points"] = []
    verdicts = bench.evaluate(report, ["skew", "scale"])
    assert verdicts["skew.violations"]["fired"]
    assert verdicts["skew.violations"]["failed"][0].startswith("unreadable")
    assert verdicts["scale.publish_ops"]["failed"] == ["nothing measured"]
    assert not verdicts["skew.deterministic"]["fired"]


# -- scripts/bench.py --------------------------------------------------------


def _script():
    spec = importlib.util.spec_from_file_location(
        "bench_script", REPO / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _serve(monkeypatch, report):
    """Make every entry's run function return its section of ``report``."""
    for name, entry in bench.ENTRIES.items():
        monkeypatch.setitem(bench.ENTRIES, name, replace(
            entry, run=lambda smoke, name=name: copy.deepcopy(report[name])))


@pytest.mark.parametrize("gate_name", sorted(CASES))
def test_script_exits_1_iff_a_hard_gate_fired(gate_name, monkeypatch,
                                              tmp_path, capsys):
    section = _section_of(gate_name)
    output = tmp_path / "bench.json"
    _serve(monkeypatch, _perturbed(gate_name, "past"))
    code = _script().main(["--smoke", "--only", section,
                           "--output", str(output)])
    assert code == (1 if gate_name in HARD else 0)

    written = json.loads(output.read_text())
    assert set(written) == {section, "gates"}
    assert written["gates"][gate_name]["fired"]
    soft_fired = [name for name, v in written["gates"].items()
                  if v["fired"] and not v["hard"]]
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last == f"soft gates fired: {', '.join(soft_fired) or 'none'}"


def test_script_gates_only_the_sections_it_produced(monkeypatch, tmp_path):
    output = tmp_path / "bench.json"
    stale = _perturbed("skew.deterministic", "past")
    output.write_text(json.dumps({"skew": stale["skew"]}))
    _serve(monkeypatch, REPORT)
    assert _script().main(["--only", "fluid", "--output", str(output)]) == 0
    written = json.loads(output.read_text())
    assert written["skew"] == stale["skew"]
    assert {_section_of(name) for name in written["gates"]} == {"fluid"}
