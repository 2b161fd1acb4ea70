import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys

import pytest

import unifan
import unifan.demazure
from unifan.cli import fan_file_payload, main, make_parser
from unifan.fan import validate_fan
from unifan.orbits import enumerate_basic_subsets
from unifan.pipeline import analyze_fan
from unifan.radiance import BilateralStructure

from conftest import RADIANT_FIXTURES, del_pezzo6
from test_demazure import forbidden

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestAnalyze:
    def test_hirzebruch_orbits_text(self, capsys):
        code, out = run(capsys, "analyze", "--family", "hirzebruch:2", "--orbits")
        assert code == 0
        assert "verdict: FINITE, 4 orbits" in out
        assert "orbit dim 2: rays [2, 3]" in out

    def test_hirzebruch_orbit_cone_counts(self, capsys):
        code, out = run(
            capsys, "analyze", "--family", "hirzebruch:2", "--format", "json", "--orbits"
        )
        report = json.loads(out)
        counts = [len(r["t_orbit_cones"]) for r in report["orbits"]["records"]]
        assert counts == [4, 2, 2, 1]

    def test_weighted_123_infinite_witness(self, capsys):
        code, out = run(capsys, "analyze", "--family", "wps:1,2,3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["finite"] is False
        assert report["verdict"]["witness_cone"] == [2]
        assert report["verdict"]["witness_irreducibles"] == [[2], [3]]

    def test_non_primitive_ray_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"dim": 2, "rays": [[2, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
            )
        )
        code, out = run(capsys, "analyze", str(bad))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "NonPrimitiveRay"

    def test_incomplete_fan_error(self, capsys, tmp_path):
        f = tmp_path / "orthant.json"
        f.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}))
        code, out = run(capsys, "analyze", str(f))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "NotComplete"

    def test_repeated_ray_index_error(self, capsys, tmp_path):
        f = tmp_path / "repeated.json"
        f.write_text(
            json.dumps(
                {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 0, 1], [1, 2], [2, 0]]}
            )
        )
        code, out = run(capsys, "analyze", str(f))
        assert code == 2
        assert json.loads(out) == {
            "error": {"kind": "ValueError", "message": "repeated ray index in cone (0, 0, 1)"}
        }

    def test_schema_error(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text(json.dumps({"dim": 2, "rays": [[1, 0]]}))
        code, out = run(capsys, "analyze", str(f))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "FanFileError"

    @pytest.mark.parametrize("prefix", ["", '{"dim": 2, "rays": '], ids=["bare", "rays"])
    def test_deeply_nested_json_is_a_fan_file_error(self, capsys, tmp_path, prefix):
        # json.load raises RecursionError, not JSONDecodeError, past its depth limit
        f = tmp_path / "deep.json"
        f.write_text(prefix + "[" * 10**5)
        code, out = run(capsys, "analyze", str(f))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "FanFileError"
        assert error["message"].startswith(f"{f} is not valid JSON: ")

    def test_huge_integer_literal_is_a_fan_file_error(self, capsys, tmp_path):
        # past the interpreter's 4300-digit limit json raises a plain ValueError
        f = tmp_path / "huge.json"
        f.write_text('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, ' + "9" * 5000 + "]]}")
        code, out = run(capsys, "analyze", str(f))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "FanFileError"
        assert error["message"].startswith(f"{f} is not valid JSON: ")

    def test_non_utf8_file_is_a_fan_file_error(self, capsys, tmp_path):
        # reading the text raises UnicodeDecodeError, which is not an OSError
        f = tmp_path / "latin.json"
        f.write_bytes(b'{"dim": 2\xff}')
        code, out = run(capsys, "analyze", str(f))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "FanFileError"
        assert error["message"].startswith(f"cannot read {f}: ")

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {"dim": 2, "rays": [[True, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]},
                "rays must be a list of integer vectors",
            ),
            (
                {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, True], [1, 2], [2, 0]]},
                "max_cones must be a list of ray-index lists",
            ),
            (
                {"dim": True, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
                "dim must be an integer",
            ),
        ],
    )
    def test_boolean_entries_rejected(self, capsys, tmp_path, data, message):
        # JSON true/false load as bool, which Python counts as int 1/0
        f = tmp_path / "bools.json"
        f.write_text(json.dumps(data))
        code, out = run(capsys, "analyze", str(f))
        assert code == 2
        assert json.loads(out) == {"error": {"kind": "FanFileError", "message": message}}

    def test_requires_exactly_one_source(self, capsys):
        expected = (
            '{"error": {"kind": "UsageError", '
            '"message": "provide exactly one of a fan file path or --family"}}\n'
        )
        code, out = run(capsys, "analyze")
        assert code == 2
        assert out == expected
        code, out = run(capsys, "analyze", "x.json", "--family", "p1xp1")
        assert code == 2
        assert out == expected

    def test_invariant_violation_is_an_error_object(self, capsys, monkeypatch):
        monkeypatch.setattr("unifan.orbits.in_span", lambda vector, gens: False)
        code, out = run(capsys, "analyze", "--family", "pn:2", "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "InvariantViolation"
        assert "do not partition the fan" in error["message"]

    def test_check_catalog_mismatch_is_an_error_object(self, capsys, monkeypatch):
        """`--check` enumerates the basic subsets; one perturbed hat makes
        them disagree with the catalog read off the maximal cones."""

        def perturbed(classes, precedence):
            basics = enumerate_basic_subsets(classes, precedence)
            opening = next(b for b in basics if not b.hat_mask)
            opening.hat_mask = 1 << min(set(range(len(classes.classes))) - set(opening.rays))
            return basics

        monkeypatch.setattr("unifan.cli.enumerate_basic_subsets", perturbed)
        code, out = run(capsys, "analyze", "--family", "pn:2", "--format", "json", "--check")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "InvariantViolation"
        assert "catalog differs" in error["message"]

    def test_check_negative_pairing_is_an_error_object(self, capsys, monkeypatch):
        """A root slice holding a root that pairs negatively with a
        non-distinguished ray makes `--check` exit 2, not raise."""

        def bad_roots(fan):
            analysis = analyze_fan(fan)
            # Rays (1, 0), (0, 1), (-1, -1): e pairs to -1 with rays 0 and 1.
            vars(analysis)["root_slices"] = ([[(-1, -1)], [], []], frozenset())
            return analysis

        monkeypatch.setattr("unifan.cli.analyze_fan", bad_roots)
        code, out = run(capsys, "analyze", "--family", "pn:2", "--format", "json", "--check")
        assert code == 2
        assert json.loads(out) == {
            "error": {
                "kind": "InvariantViolation",
                "message": "root pairs negatively with a non-distinguished ray",
            }
        }

    def test_class_table_invariant_is_an_error_object(self, capsys, monkeypatch):
        bogus = BilateralStructure(
            positive=(0, 1), negative=(2,), dual_basis=((-1, 0), (0, -1))
        )
        monkeypatch.setattr("unifan.pipeline.find_bilateral", lambda fan: bogus)
        code, out = run(capsys, "analyze", "--family", "pn:2", "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "InvariantViolation"
        assert "negative entry" in error["message"]

    def test_roots_listing(self, capsys):
        code, out = run(
            capsys, "analyze", "--family", "pn:2", "--format", "json", "--roots"
        )
        report = json.loads(out)
        roots = report["roots"]["list"]
        assert len(roots) == 6
        assert all(r["kind"] == "semisimple" for r in roots)

    @pytest.mark.parametrize("spec", ["wps:1,1,2", "hirzebruch:3", "pn:2"])
    def test_roots_flag_leaves_text_unchanged(self, capsys, spec):
        """The root list is JSON-only: the text report shows the counts."""
        _, plain = run(capsys, "analyze", "--family", spec)
        _, with_roots = run(capsys, "analyze", "--family", spec, "--roots")
        assert with_roots.encode("utf-8") == plain.encode("utf-8")
        assert "roots: " in plain

    def test_infinite_witness_text(self, capsys):
        code, out = run(capsys, "analyze", "--family", "wps:1,2,3")
        assert code == 0
        assert "verdict: INFINITE (non_free_monoid)" in out
        assert "witness cone: rays [2], irreducibles [(2,), (3,)]" in out

    def test_check_on_not_radiant_fan(self, capsys, tmp_path):
        f = tmp_path / "dp6.json"
        f.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
                    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
                }
            )
        )
        code, out = run(capsys, "analyze", str(f), "--format", "json", "--check")
        report = json.loads(out)
        assert report["cross_check"]["agree"] is True
        assert report["oracle"]["trials"] == 0

    def test_not_radiant_report(self, capsys, tmp_path):
        f = tmp_path / "dp6.json"
        f.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
                    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
                }
            )
        )
        code, out = run(capsys, "analyze", str(f), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["reason"] == "not_radiant"
        assert report["bilateral"] is None
        assert "orbits" not in report


def _cap_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def analyze_capped(*args) -> subprocess.CompletedProcess:
    """`unifan analyze` in a child process with a 1 GiB address-space limit
    and a 20 s timeout."""
    return subprocess.run(
        [sys.executable, "-m", "unifan", "analyze", *args],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(unifan.__file__))},
        preexec_fn=_cap_memory,
        capture_output=True,
        text=True,
        timeout=20,
    )


class TestHostileInput:
    def test_one_cone_of_dimension_30_is_rejected_without_its_faces(self, tmp_path):
        """Validation reads the maximal cones only: the 2^30 faces of the one
        cone would not fit under the child's 1 GiB address-space limit."""
        path = tmp_path / "one_cone_30.json"
        rays = [[int(i == j) for j in range(30)] for i in range(30)]
        path.write_text(json.dumps({"dim": 30, "rays": rays, "max_cones": [list(range(30))]}))
        proc = analyze_capped(str(path))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["error"] == {
            "kind": "NotComplete",
            "message": "the fan does not cover the ambient space",
        }

    @pytest.mark.parametrize(
        "source",
        ["wps:1,1,99999999999999999999999", "hirzebruch:99999999999999999999999", "file"],
    )
    def test_unlistable_root_slice_is_too_large(self, tmp_path, source):
        """Each fan has a ray with about 10^23 Demazure roots, more than a
        list can hold: the default report, which counts them off the slices,
        exits 2 with a `TooLarge` error object instead of a traceback."""
        if source == "file":
            path = tmp_path / "three_rays.json"
            rays = [[1, 0], [0, 1], [-1, -(10**23)]]
            path.write_text(json.dumps({"dim": 2, "rays": rays, "max_cones": [[0, 1], [1, 2], [2, 0]]}))
            args = [str(path)]
        else:
            args = ["--family", source]
        proc = analyze_capped(*args, "--format", "json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"] == {
            "kind": "TooLarge",
            "message": "the Demazure roots at ray 1 do not fit in a list",
        }


class TestParser:
    def test_built_once_with_a_fresh_namespace_per_call(self):
        parser = make_parser()
        assert make_parser() is parser
        first = parser.parse_args(["analyze", "a.json", "--orbits", "--seed", "3"])
        second = parser.parse_args(["analyze", "b.json"])
        assert first is not second
        assert (first.path, first.orbits, first.seed) == ("a.json", True, 3)
        assert (second.path, second.orbits, second.seed) == ("b.json", False, 0)

    def test_usage_errors_still_exit_2(self, capsys):
        for argv in ([], ["analyze", "--format", "xml"], ["build", "pn:2"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
        assert "usage: unifan" in capsys.readouterr().err


class TestBuild:
    def test_build_hirzebruch(self, capsys, tmp_path):
        out_path = tmp_path / "f2.json"
        code, _ = run(capsys, "build", "hirzebruch:2", "-o", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["rays"]) == 4
        assert len(data["max_cones"]) == 4
        validate_fan(data["dim"], data["rays"], data["max_cones"], require_complete=True)

    def test_build_pn2(self, capsys, tmp_path):
        out_path = tmp_path / "p2.json"
        code, _ = run(capsys, "build", "pn:2", "-o", str(out_path))
        assert code == 0
        assert len(json.loads(out_path.read_text())["rays"]) == 3

    def test_build_rejects_missing_unit_weight(self, capsys, tmp_path):
        code, out = run(capsys, "build", "wps:2,4", "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "InvalidSpec"

    def test_roundtrip_matches_family_analysis(self, capsys, tmp_path):
        out_path = tmp_path / "fan.json"
        run(capsys, "build", "wps:1,1,2", "-o", str(out_path))
        _, from_file = run(
            capsys, "analyze", str(out_path), "--format", "json", "--orbits"
        )
        _, from_family = run(
            capsys, "analyze", "--family", "wps:1,1,2", "--format", "json", "--orbits"
        )
        assert from_file == from_family


class TestDeterminism:
    def test_byte_for_byte_repeatability(self, capsys):
        argv = [
            "analyze",
            "--family",
            "hirzebruch:3",
            "--format",
            "json",
            "--orbits",
            "--check",
            "--seed",
            "7",
        ]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_oracle_reports_zero_failures(self, capsys):
        _, out = run(
            capsys,
            "analyze",
            "--family",
            "wps:1,1,2,4",
            "--format",
            "json",
            "--check",
            "--seed",
            "3",
        )
        report = json.loads(out)
        assert report["oracle"]["failures"] == 0
        assert report["oracle"]["trials"] > 0
        assert report["cross_check"]["agree"] is True


class TestNoRootRecords:
    """The CLI reads the per-ray root slices: on no flag combination does it
    build a `DemazureRoot` record, enumerate records or flag them. With
    those names failing wherever a module of the package holds them, every
    report is byte-identical to the unpatched one."""

    @pytest.mark.parametrize("source", sorted(RADIANT_FIXTURES.values()) + ["dP6"])
    def test_reports_without_records(self, capsys, monkeypatch, tmp_path, source):
        if source == "dP6":
            path = tmp_path / "dp6.json"
            path.write_text(json.dumps(fan_file_payload(del_pezzo6())))
            fan_args = [str(path)]
        else:
            fan_args = ["--family", source]
        flags = ["--roots", "--orbits", "--check"]
        runs = [
            ["analyze", *fan_args, "--format", fmt, *itertools.compress(flags, picked)]
            for fmt in ("json", "text")
            for picked in itertools.product([True, False], repeat=3)
        ]
        expected = [run(capsys, *argv) for argv in runs]
        package = [m for n, m in sys.modules.items() if n == "unifan" or n.startswith("unifan.")]
        for name in ("DemazureRoot", "enumerate_roots", "mark_membership"):
            original = getattr(unifan.demazure, name)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden(name))
        assert [run(capsys, *argv) for argv in runs] == expected
        assert expected[0][0] == 0 and '"list": [' in expected[0][1]


class TestGoldenReports:
    @pytest.mark.parametrize(
        "family_spec,name",
        [("wps:1,1,2", "p112"), ("p1xp1", "p1xp1"), ("hirzebruch:2", "f2")],
    )
    def test_schema_stable(self, capsys, family_spec, name):
        _, out = run(
            capsys, "analyze", "--family", family_spec, "--format", "json", "--orbits"
        )
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "r", encoding="utf-8") as fh:
            assert out == fh.read()


class TestRootReportPins:
    """SHA-256 of whole `--roots` reports. The first two were recorded with
    the `json.dumps` renderer and the sorted, frozen root records; the third,
    29414 roots in 6.8 MB, with `_json_text` over one dict per root, before
    the root list was written from the records."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--family", "wps:1,1,2,4,8", "--format", "json", "--roots", "--check"],
                "ae3c91e7f7b6d4816b44958257521d1bb888da8177efa2783134bae2329b3715",
            ),
            (
                ["--family", "pn:3", "--format", "json", "--roots"],
                "2836139b47ba9d44eaf018472aaf92f1e881c8f61bb686c19d8ec667903bb51a",
            ),
            (
                ["--family", "wps:1,1,2,4,8,16,32,64", "--format", "json", "--roots"],
                "b2441ca1b6995bc0d150516da6cc74ced82a13b45714da203a9e73aa9a5c58bd",
            ),
        ],
        ids=["wps-1-1-2-4-8-check", "pn-3", "wps-1-1-2-4-8-16-32-64"],
    )
    def test_report_digest(self, capsys, argv, digest):
        code, out = run(capsys, "analyze", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestOrbitReportPins:
    """SHA-256 of whole `--orbits` reports, recorded with `_json_text` over
    the whole `orbits` block, before it had its own writer; the text report
    pins the torus-orbit cones printed as tuples."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--family", "pn:8", "--format", "json", "--orbits"],
                "8a06d22943618928d0c37b8cbb2fcf2adf2c3812fcfe07e9b5d22f769370b0b6",
            ),
            (
                ["--family", "wps:1,1,2,4,8,16", "--format", "json", "--orbits", "--check"],
                "7d655dce58501e280e1864144401b56a4d40ce660adebd339a5cc4c7592b50cd",
            ),
            (
                ["--family", "hirzebruch:3", "--orbits"],
                "b23693057e0e20afde457db34113300d91602b2ca06d12d1c9446309b7f46218",
            ),
        ],
        ids=["pn-8", "wps-1-1-2-4-8-16-check", "hirzebruch-3-text"],
    )
    def test_report_digest(self, capsys, argv, digest):
        code, out = run(capsys, "analyze", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
