import pytest

import unifan.classgroup as classgroup_module
from unifan.classgroup import class_group, radiant_classes
from unifan.families import (
    CheckReport,
    FamilySpec,
    InvalidSpec,
    NotApplicable,
    _divisibility_chain,
    _surface_pattern_finite,
    build,
    cross_check,
    parse_family,
)
from unifan.fan import Fan, is_complete, validate_fan
from unifan.pipeline import analyze_fan
from unifan.radiance import find_bilateral, iter_bilateral_structures

from conftest import (
    FAMILY_SPECS,
    del_pezzo6,
    family,
    finiteness_verdict,
    negative_surface,
    p1_power,
    product_of,
    radiant_p3_draw,
    random_surfaces,
)
from test_radiance import _record_eliminations


class TestParseFamily:
    def test_wps(self):
        assert parse_family("wps:1,1,2") == FamilySpec(kind="wps", weights=(1, 1, 2))

    def test_hirzebruch(self):
        assert parse_family("hirzebruch:4") == FamilySpec(kind="hirzebruch", parameter=4)

    def test_p1xp1(self):
        assert parse_family("p1xp1") == FamilySpec(kind="p1xp1")

    def test_pn(self):
        assert parse_family("pn:3") == FamilySpec(kind="pn", parameter=3)

    @pytest.mark.parametrize(
        "text", ["wps:", "wps:a,b", "hirzebruch:x", "pn:", "mystery:1", "p1xp1:3"]
    )
    def test_malformed(self, text):
        with pytest.raises(InvalidSpec):
            parse_family(text)


class TestBuild:
    def test_p1xp1_is_hirzebruch_0(self):
        assert build(parse_family("p1xp1")) == build(parse_family("hirzebruch:0"))

    def test_hirzebruch_2_ray_layout(self):
        fan = family("hirzebruch:2")
        assert fan.ray_vectors() == [(1, 0), (0, 1), (-1, -2), (0, -1)]
        assert sorted(c.ray_indices for c in fan.max_cones) == [
            (0, 1),
            (0, 3),
            (1, 2),
            (2, 3),
        ]

    def test_weighted_112(self):
        fan = family("wps:1,1,2")
        assert fan.ray_vectors() == [(1, 0), (0, 1), (-1, -2)]
        assert len(fan.max_cones) == 3

    def test_p1xp1(self):
        fan = family("p1xp1")
        assert fan.ray_vectors() == [(1, 0), (0, 1), (-1, 0), (0, -1)]

    def test_pn_matches_unit_weights(self):
        assert family("pn:2").ray_vectors() == family("wps:1,1,1").ray_vectors()

    def test_pn_2_has_three_rays(self):
        assert family("pn:2").num_rays == 3

    @pytest.mark.parametrize(
        "text",
        ["wps:2,4", "wps:1,2,2", "wps:1,0,1", "wps:1", "hirzebruch:-1", "pn:0"],
    )
    def test_rejected_specs(self, text):
        with pytest.raises(InvalidSpec):
            build(parse_family(text))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("hirzebruch:1_0", "hirzebruch needs one integer parameter"),
            ("pn:\u0663", "pn needs one integer parameter"),
            ("pn: 3", "pn needs one integer parameter"),
            ("pn:+2", "pn needs one integer parameter"),
            ("pn:01", "pn needs one integer parameter"),
            ("pn:-0", "pn needs one integer parameter"),
            ("pn:3\n", "pn needs one integer parameter"),
            ("pn:" + "9" * 5000, "pn needs one integer parameter"),
            ("wps:1, 1,2", "wps needs a comma-separated weight list"),
            ("wps:1,+1,2", "wps needs a comma-separated weight list"),
            ("wps:1,1," + "9" * 5000, "wps needs a comma-separated weight list"),
        ],
    )
    def test_only_canonical_ascii_integers_parse(self, text, message):
        """A field parses only as ASCII 0|-?[1-9][0-9]*; a field past
        `int`'s digit limit gets the same error, not a ValueError."""
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            parse_family(text)

    def test_negative_and_zero_fields_still_parse(self):
        """So these specs fail in `build`, with its messages."""
        assert parse_family("hirzebruch:-1") == FamilySpec(kind="hirzebruch", parameter=-1)
        assert parse_family("wps:1,0,-3") == FamilySpec(kind="wps", weights=(1, 0, -3))
        for text, message in [
            ("hirzebruch:-1", "hirzebruch parameter must be >= 0"),
            ("wps:1,0,1", "weights must be positive"),
        ]:
            with pytest.raises(InvalidSpec, match=f"^{message}$"):
                build(parse_family(text))

    @pytest.mark.parametrize(
        "spec",
        ["hirzebruch:0", "hirzebruch:5", "p1xp1", "pn:1", "pn:3", "wps:1,1,4", "wps:1,2,3", "wps:1,1,2,4"],
    )
    def test_outputs_validate_complete_bilateral(self, spec):
        fan = family(spec)
        rebuilt = validate_fan(
            fan.dim,
            fan.ray_vectors(),
            [list(c.ray_indices) for c in fan.max_cones],
            require_complete=True,
        )
        assert is_complete(rebuilt)
        assert find_bilateral(rebuilt) is not None

    def test_finite_weighted_orbit_count_is_n_plus_one(self):
        for weights, finite in [
            ((1, 1), True),
            ((1, 1, 2), True),
            ((1, 1, 3), True),
            ((1, 1, 2, 4), True),
            ((1, 1, 2, 6), True),
            ((1, 1, 2, 3), False),
            ((1, 1, 3, 4), False),
        ]:
            fan = build(FamilySpec(kind="wps", weights=weights))
            verdict = finiteness_verdict(fan)
            assert verdict.finite == finite, weights
            if finite:
                assert verdict.orbit_count == len(weights) - 1 + 1


class TestCrossCheck:
    def run(self, fan):
        analysis = analyze_fan(fan)
        return cross_check(fan, analysis.verdict), analysis.verdict

    def test_wps_1124_agrees_finite(self):
        report, verdict = self.run(family("wps:1,1,2,4"))
        assert verdict.finite and report.agree
        assert report.weights == (1, 1, 2, 4)
        assert report.recognizers == ("class-rank-one",)

    def test_wps_1123_agrees_infinite(self):
        report, verdict = self.run(family("wps:1,1,2,3"))
        assert not verdict.finite and report.agree

    def test_wps_123_agrees_infinite(self):
        report, verdict = self.run(family("wps:1,2,3"))
        assert not verdict.finite and report.agree
        assert report.weights == (1, 2, 3)

    def test_surface_recognizer_hirzebruch(self):
        report, verdict = self.run(family("hirzebruch:3"))
        assert verdict.finite and report.agree
        assert "surface" in report.recognizers
        assert report.negative_patterns == ((0, 1), (1, 3))

    def test_surface_recognizer_p1xp1(self):
        report, verdict = self.run(family("p1xp1"))
        assert verdict.finite and report.agree

    def test_surface_recognizer_negative_case(self):
        report, verdict = self.run(negative_surface(2))
        assert not verdict.finite and report.agree

    def test_del_pezzo_agrees_infinite(self):
        report, verdict = self.run(del_pezzo6())
        assert not verdict.finite and report.agree
        assert report.predictions == (False,)

    def test_both_recognizers_on_rank_one_surface(self):
        report, verdict = self.run(family("wps:1,1,5"))
        assert verdict.finite and report.agree
        assert set(report.recognizers) == {"class-rank-one", "surface"}
        assert report.predictions == (True, True)

    def test_not_applicable(self):
        rays = [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (-1, 0, 0),
            (0, -1, 0),
            (0, 0, -1),
        ]
        cones = [
            [i, j, k]
            for i in (0, 3)
            for j in (1, 4)
            for k in (2, 5)
        ]
        fan = validate_fan(3, rays, cones, require_complete=True)
        verdict = finiteness_verdict(fan)
        with pytest.raises(NotApplicable):
            cross_check(fan, verdict)

    def test_not_applicable_before_the_bilateral_search(self, monkeypatch):
        """Applicability is read off the class group and the dimension, so
        a fan of dim > 2 and class rank != 1 runs no bilateral search, radiant
        (P1^3) or not (dP6 x P1)."""
        fans = [p1_power(3), product_of(del_pezzo6(), family("pn:1"))]
        verdicts = [finiteness_verdict(fan) for fan in fans]

        def forbidden(fan):
            raise RuntimeError("cross_check ran the bilateral search")

        monkeypatch.setattr("unifan.families.find_bilateral", forbidden)
        for fan, verdict in zip(fans, verdicts):
            with pytest.raises(NotApplicable) as info:
                cross_check(fan, verdict)
            assert str(info.value) == "no recognizer for this fan (dim > 2 with class rank != 1)"


def reference_cross_check(fan, verdict) -> CheckReport:
    """Independent classification recognizers against the computed verdict.

    Rank-one class group: finite exactly for weight multisets starting 1, 1
    with a divisibility chain. Surfaces: finite exactly for the three known
    negative-ray patterns, up to swapping the basis coordinates.
    """
    info = class_group(fan)
    bilateral = find_bilateral(fan)
    recognizers: list[str] = []
    predictions: list[bool] = []
    weights = None
    patterns = None

    if info.free_rank == 1 and not info.torsion_invariants:
        recognizers.append("class-rank-one")
        if bilateral is None:
            predictions.append(False)
        else:
            classes = radiant_classes(fan, bilateral)
            weights = tuple(
                sorted([1] + [classes.class_of(eps)[0] for eps in bilateral.positive])
            )
            predictions.append(
                weights[0] == 1 and weights[1] == 1 and _divisibility_chain(weights)
            )

    if fan.dim == 2:
        recognizers.append("surface")
        if bilateral is None:
            predictions.append(False)
        else:
            patterns = tuple(
                sorted(
                    tuple(-c for c in bilateral.coordinates(fan.rays[tau]))
                    for tau in bilateral.negative
                )
            )
            predictions.append(_surface_pattern_finite(patterns))

    if not recognizers:
        raise NotApplicable(
            "no recognizer for this fan (dim > 2 with class rank != 1)"
        )
    agree = all(p == verdict.finite for p in predictions)
    return CheckReport(
        recognizers=tuple(recognizers),
        predictions=tuple(predictions),
        verdict_finite=verdict.finite,
        agree=agree,
        weights=weights,
        negative_patterns=patterns,
    )


def outcome(check, fan, verdict):
    try:
        return check(fan, verdict)
    except NotApplicable as exc:
        return "NotApplicable", str(exc)


def test_cross_check_matches_reference():
    """`cross_check` (applicability first) against the parent's version,
    which ran the bilateral search first (kept verbatim above)."""
    fans = [family(spec) for spec in FAMILY_SPECS] + random_surfaces()
    fans += [del_pezzo6(), negative_surface(2), p1_power(1), p1_power(3)]
    fans += [product_of(family("pn:2"), family("pn:1")), product_of(del_pezzo6(), family("pn:1"))]
    fans.append(validate_fan(3, *radiant_p3_draw(4), require_complete=True))
    applicable = 0
    for fan in fans:
        verdict = finiteness_verdict(fan)
        expected = outcome(reference_cross_check, fan, verdict)
        assert outcome(cross_check, fan, verdict) == expected
        applicable += isinstance(expected, CheckReport)
    assert 0 < applicable < len(fans)


class TestSharedStages:
    """`analyze_fan` keeps the class group, the first bilateral structure and
    its class table on the fan, so `cross_check` afterwards eliminates no
    cone and builds no class table. What is kept dies with the `Fan`: a
    separately built equal fan finds everything again."""

    @staticmethod
    def _spy(monkeypatch):
        """Every `scaled_inverse` matrix and every class table built."""
        calls = _record_eliminations(monkeypatch)
        real = classgroup_module._class_table

        def counting(fan, bilateral):
            calls.append(("class table", bilateral))
            return real(fan, bilateral)

        monkeypatch.setattr(classgroup_module, "_class_table", counting)
        return calls

    def test_cross_check_recomputes_nothing(self, monkeypatch):
        calls = self._spy(monkeypatch)
        builders = [lambda spec=spec: family(spec) for spec in FAMILY_SPECS]
        builders += [del_pezzo6, lambda: negative_surface(2)]
        tables = 0
        for build_fan in builders:
            runs = []
            for _ in range(2):
                start = len(calls)
                fan = build_fan()
                verdict = analyze_fan(fan).verdict
                middle = len(calls)
                cross_check(fan, verdict)
                assert calls[middle:] == [], fan.rays
                runs.append((fan, calls[start:]))
            (first, found), (second, found_again) = runs
            assert first == second and first is not second
            assert found_again == found and found
            tables += any(call[0] == "class table" for call in found)
        assert tables == len(FAMILY_SPECS) + 1

    def test_non_first_structure_does_not_stand_in(self):
        """An analysis made with a later structure keeps that structure's
        class table apart: the cross-check, and the first structure's table,
        equal those of a fresh copy of the fan that never saw it."""
        fans = [family(spec) for spec in FAMILY_SPECS] + random_surfaces()
        checked = 0
        for fan in fans:
            for bilateral in list(iter_bilateral_structures(fan))[1:]:
                verdict = analyze_fan(fan, bilateral=bilateral).verdict
                fresh = Fan(fan.dim, fan.rays, fan.max_cones)
                expected = outcome(reference_cross_check, fresh, verdict)
                assert outcome(cross_check, fan, verdict) == expected
                first = find_bilateral(fan)
                assert radiant_classes(fan, first) == radiant_classes(fresh, first)
                assert radiant_classes(fan, bilateral).negative == bilateral.negative
                checked += 1
        assert checked > 0
