"""The CLI's JSON report writer against the renderer it replaced."""

import enum
import itertools
import json
import random
from collections import OrderedDict, namedtuple

import pytest

from unifan.cli import _json_text, build_report, report_json
from unifan.pipeline import analyze_fan

from conftest import FAMILY_SPECS, RADIANT_FIXTURES, family, random_surfaces
from test_demazure import PRODUCTS, ReferenceRoot, reference_mark_membership
from test_projection_chain import ROOTS_WORKLOAD

_JSON_SAFE = 2**53 - 1


def _jsonable(value):
    """Recursively prepare a report for JSON; integers beyond 2^53 - 1 are
    serialized as strings so consumers never lose precision."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value if abs(value) <= _JSON_SAFE else str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value)!r}")


def reference_text(value) -> str:
    return json.dumps(_jsonable(value), indent=2)


class Weight(enum.IntEnum):
    LOW = 3
    HUGE = 2**60


EDGE_INTS = [0, 1, -1, _JSON_SAFE, -_JSON_SAFE, 2**53, -(2**53), 2**60, -(2**60)]
EDGE_STRINGS = [
    "",
    "plain",
    "ray ρ → σ",
    "日本語",
    "emoji 🙂",
    "tab\tnew\nline\r\x00\x1f\x7f",
    'quote " and \\ backslash',
    "/slash",
    "  ",
]


def random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(7)
        if pick == 0:
            return rng.choice(EDGE_INTS)
        if pick == 1:
            return rng.randint(-(2**70), 2**70) if rng.random() < 0.2 else rng.randint(-50, 50)
        if pick == 2:
            return rng.choice(EDGE_STRINGS)
        if pick == 3:
            return rng.choice([True, False, None])
        if pick == 4:
            return rng.choice(list(Weight))
        return rng.choice([[], {}, ()])
    size = rng.randint(0, 4)
    kind = rng.randrange(3)
    children = [random_tree(rng, depth - 1) for _ in range(size)]
    if kind == 0:
        return children
    if kind == 1:
        return tuple(children)
    keys = [rng.choice(EDGE_STRINGS) + str(i) for i in range(size)]
    return dict(zip(keys, children))


def nested(depth: int):
    tree = [EDGE_INTS, {"leaf": Weight.HUGE}]
    for level in range(depth):
        tree = {f"level {level}": tree, "tuple": (level, -level)} if level % 2 else [tree, ()]
    return tree


def with_root_list(report: dict, roots) -> dict:
    """The report with the root list that `build_report` used to add under
    `--roots`, one dict per root: the reference for `report_json`."""
    if roots is None:
        return report
    report = {**report, "roots": {**report["roots"]}}
    report["roots"]["list"] = [
        {
            "e": list(r.e),
            "distinguished_ray": r.distinguished_ray,
            "kind": "semisimple" if r.semisimple else "unipotent",
            "in_unipotent_group": r.in_u,
        }
        for r in roots
    ]
    return report


def assert_writer_matches(report: dict, analysis) -> None:
    """The writer fed the analysis's slices against `json.dumps` of one
    dict per root record of `analysis.roots`."""
    expected = reference_text(with_root_list(report, analysis.roots))
    assert report_json(report, analysis.root_slices) == expected


def is_plain_tree(value) -> bool:
    if type(value) is dict:
        return all(type(k) is str and is_plain_tree(v) for k, v in value.items())
    if type(value) in (list, tuple):
        return all(is_plain_tree(x) for x in value)
    return value is None or type(value) in (bool, int, str)


@pytest.mark.parametrize("spec", sorted(RADIANT_FIXTURES.values()))
def test_fixture_reports(spec):
    analysis = analyze_fan(family(spec))
    for orbits, roots, check in itertools.product([False, True], repeat=3):
        report = build_report(analysis, orbits, check, seed=5)
        assert is_plain_tree(report) and "list" not in report["roots"]
        assert report_json(report) == _json_text(report) == reference_text(report)
        if roots:
            assert_writer_matches(report, analysis)


def assert_corpus(fans) -> int:
    """Check the writer on each fan's report with its root list; returns the
    number of roots written."""
    written = 0
    for fan in fans:
        analysis = analyze_fan(fan)
        assert_writer_matches(build_report(analysis, False, False, seed=0), analysis)
        written += len(analysis.roots)
    return written


class TestRootListAgainstReference:
    """`report_json` writes the root list from the per-ray slices; the
    reference is `json.dumps` of the report with one dict per root record.
    The radiant fixtures are covered by `test_fixture_reports`."""

    def test_family_specs(self):
        assert assert_corpus(family(spec) for spec in FAMILY_SPECS) > 0

    def test_random_surfaces(self):
        fans = random_surfaces()
        assert any(analyze_fan(fan).bilateral is None for fan in fans)
        assert assert_corpus(fans) > 0

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_products(self, name):
        assert assert_corpus([PRODUCTS[name]()]) > 0

    @pytest.mark.parametrize("spec", ROOTS_WORKLOAD)
    def test_roots_workload(self, spec):
        assert assert_corpus([family(spec)]) > 500


def finite_analyses(fans):
    analyses = [analyze_fan(fan) for fan in fans]
    return [a for a in analyses if a.verdict.finite]


class TestOrbitBlockAgainstReference:
    """`report_json` writes the `orbits` block with one `%` template per
    cone length; the reference is `json.dumps` of the report, on every
    finite fan of the corpora, with and without `--check`."""

    @staticmethod
    def assert_orbit_reports(analyses) -> int:
        cones = 0
        for analysis in analyses:
            for check in (False, True):
                report = build_report(analysis, True, check, seed=5)
                assert is_plain_tree(report)
                assert report_json(report) == reference_text(report)
            cones += sum(len(r["t_orbit_cones"]) for r in report["orbits"]["records"])
        return cones

    def test_family_specs(self):
        analyses = finite_analyses(family(spec) for spec in FAMILY_SPECS)
        assert self.assert_orbit_reports(analyses) > 0

    def test_random_surfaces(self):
        analyses = finite_analyses(random_surfaces())
        assert self.assert_orbit_reports(analyses) > 0

    def test_products(self):
        analyses = finite_analyses(PRODUCTS[name]() for name in sorted(PRODUCTS))
        assert self.assert_orbit_reports(analyses) == 729 + 27 + 21

    def test_roots_workload(self):
        analyses = finite_analyses(family(spec) for spec in ROOTS_WORKLOAD)
        assert self.assert_orbit_reports(analyses) > 0


# name -> records of a hand-made `orbits` block
HAND_MADE_ORBITS = {
    "no-records": [],
    "empty-cone-first": [
        {"rays": [0, 1], "hat": [], "dimension": 2, "t_orbit_cones": [(), (0,), (1,), (0, 1)]},
    ],
    "one-ray-cones": [
        {"rays": [1], "hat": [0], "dimension": 1, "t_orbit_cones": [(0,), (0, 2)]},
        {"rays": [0, 2], "hat": [1], "dimension": 1, "t_orbit_cones": [(1,)]},
    ],
    "hat-is-the-cone": [
        {"rays": [2, 3], "hat": [0, 1], "dimension": 0, "t_orbit_cones": [(0, 1)]},
        {"rays": [], "hat": [0, 1, 2], "dimension": 0, "t_orbit_cones": [(0, 1, 2)]},
    ],
    "mixed-lengths": [
        {"rays": [], "hat": [], "dimension": 3, "t_orbit_cones": [(), (4,), (1, 2, 3), (10, 11)]},
        {"rays": [5], "hat": [6], "dimension": 2, "t_orbit_cones": []},
    ],
}


@pytest.mark.parametrize("name", sorted(HAND_MADE_ORBITS))
def test_hand_made_orbit_blocks(name):
    report = build_report(analyze_fan(family("hirzebruch:2")), True, True, seed=0)
    report["orbits"]["records"] = HAND_MADE_ORBITS[name]
    assert report_json(report) == reference_text(report)


# name -> (slices, semisimple set, v or None off radiant fans)
HAND_MADE_ROOTS = {
    "empty": ([], frozenset(), None),
    "empty-slices": ([[], [], []], frozenset(), (1, 2)),
    "safe-edge": (
        [[(-_JSON_SAFE, 0)], [], [(_JSON_SAFE, -_JSON_SAFE), (_JSON_SAFE, 1)]],
        frozenset({(-_JSON_SAFE, 0), (_JSON_SAFE, 1)}),
        (-1, 0),
    ),
    "past-2^53": (
        [[(0, -1), (2**53, -(2**53))], [(1, 2**60)], [(-(2**53), 1)]],
        frozenset({(0, -1), (-(2**53), 1)}),
        (1, -1),
    ),
    "one-dimensional": ([[(-1,)], [(1,)]], frozenset({(-1,), (1,)}), (-1,)),
    "flags": (
        [[(1, 0)], [(-1, 0), (0, -1), (2, -1)], [(0, 1), (1, -1)]],
        frozenset({(1, 0), (-1, 0), (0, 1)}),
        (1, -3),
    ),
    "null-flags": (
        [[(1, 0)], [(-1, 0), (0, -1), (2, -1)], [(0, 1), (1, -1)]],
        frozenset({(1, 0), (-1, 0), (0, 1)}),
        None,
    ),
}


def reference_records(slices, semisimple, v):
    """One record per root in (ray, e) order, flagged by the reference rule
    when `v` is given, as `FanAnalysis.roots` builds them."""
    records = [
        ReferenceRoot(e=e, distinguished_ray=rho, semisimple=e in semisimple)
        for rho, found in enumerate(slices)
        for e in found
    ]
    return records if v is None else reference_mark_membership(records, v)


@pytest.mark.parametrize("name", sorted(HAND_MADE_ROOTS))
def test_hand_made_roots(name):
    slices, semisimple, v = HAND_MADE_ROOTS[name]
    records = reference_records(slices, semisimple, v)
    if name == "flags":
        assert {(r.semisimple, r.in_u) for r in records} == {(True, True), (True, False), (False, True)}
    report = build_report(analyze_fan(family("wps:1,1,2")), False, True, seed=0)
    report["v"] = None if v is None else list(v)
    expected = reference_text(with_root_list(report, records))
    assert report_json(report, (slices, semisimple)) == expected


def test_random_trees():
    rng = random.Random(2024)
    for _ in range(400):
        tree = random_tree(rng, depth=5)
        assert _json_text(tree) == reference_text(tree)


@pytest.mark.parametrize("value", EDGE_INTS + EDGE_STRINGS + [True, False, None, Weight.LOW, Weight.HUGE])
def test_scalars(value):
    assert _json_text(value) == reference_text(value)


class Label(str):
    pass


class Rows(list):
    pass


Pair = namedtuple("Pair", "ray count")


@pytest.mark.parametrize(
    "value",
    [
        Label("ρ\n"),
        Rows([1, Rows([2**60])]),
        Pair(3, Weight.HUGE),
        OrderedDict([("b", Pair(0, Label("x"))), ("a", [])]),
        {"pairs": [Pair(-1, True), Pair(2**53, None)]},
    ],
    ids=["str", "list", "namedtuple", "ordered-dict", "nested"],
)
def test_container_and_scalar_subclasses(value):
    assert _json_text(value) == reference_text(value)


def test_big_integers_are_strings():
    assert _json_text([2**53, -(2**53), _JSON_SAFE]) == '[\n  "9007199254740992",\n  "-9007199254740992",\n  9007199254740991\n]'


def test_deep_nesting():
    tree = nested(60)
    assert _json_text(tree) == reference_text(tree)


@pytest.mark.parametrize("bad", [1.5, {1, 2}, [0, {"x": 0.0}], {"s": frozenset()}])
def test_rejected_values(bad):
    with pytest.raises(TypeError):
        reference_text(bad)
    with pytest.raises(TypeError):
        _json_text(bad)
