"""The `--check` oracle and the basic subsets it draws.

On an infinite verdict the oracle draws each trial's basic subset by one
seeded random descent of the basic-subset search (`random_basic_subsets`),
which is not uniform. What makes that safe is the property the trials sample,
asserted here exhaustively over every basic subset: an in-U root whose
distinguished ray is a member or in the hat pairs positively with some hat
ray, so it acts trivially on the stratum. The descent is checked against the
enumeration, and the oracle against two earlier implementations, both kept
verbatim: one enumerated every basic subset of every radiant fan
(`reference_oracle_check`), the other drew them by descent and simulated
every trial on `Fraction` points (`descent_reference_oracle_check`). The
oracle draws only zero masks; it is checked in lockstep against the
`coxspace` simulator, draw by draw, on one seeded stream per path.
"""

import json
import os
import random
import subprocess
import sys
from functools import cache
from itertools import islice

import pytest

import unifan
import unifan.cli
from unifan import validate_fan
from unifan.cli import _monomial_rays, _nonzero_draw, _oracle_check, _stratum_zeros, main
from unifan.coxspace import apply_root, apply_torus, random_rational, random_stratum_point
from unifan.demazure import DemazureRoot
from unifan.fan import ray_mask
from unifan.linalg import InvariantViolation
from unifan.orbits import (
    _ROOT,
    BasicSubset,
    _basic_subset_rule,
    _bits,
    enumerate_basic_subsets,
    random_basic_subsets,
    with_membership,
)
from unifan.pipeline import analyze_fan

from conftest import FAMILY_SPECS, family, p1_power, product_of, radiant_p3_draw, random_surfaces
from test_coxspace import ORACLE_FIXTURES


def radiant_analyses(fans):
    results = (analyze_fan(fan) for fan in fans)
    return [a for a in results if a.bilateral is not None]


def p3_draw(steps):
    return validate_fan(3, *radiant_p3_draw(steps), require_complete=True)


CORPORA = {
    "fixtures": lambda: radiant_analyses(family(spec) for spec in ORACLE_FIXTURES),
    "family_specs": lambda: radiant_analyses(family(spec) for spec in FAMILY_SPECS),
    "random_surfaces": lambda: radiant_analyses(random_surfaces()),
    "products": lambda: radiant_analyses(
        [p1_power(3), product_of(family("pn:2"), family("pn:1")), p1_power(6)]
    ),
    "p3_draws": lambda: radiant_analyses(p3_draw(k) for k in (2, 6, 10)),
}


@cache
def analyses(corpus):
    return CORPORA[corpus]()


def pairs(basics):
    return [(b.rays_mask, b.hat_mask) for b in basics]


def enumerated(analysis):
    return enumerate_basic_subsets(analysis.classes, analysis.precedence)


def draws(analysis, seed, count):
    rng = random.Random(seed)
    return list(islice(random_basic_subsets(analysis.classes, analysis.precedence, rng), count))


def descent_probabilities(analysis):
    """The exact probability that one descent yields each basic subset."""
    expand = _basic_subset_rule(analysis.classes, analysis.precedence)
    out = {}
    stack = [(_ROOT, 1.0)]
    while stack:
        node, reach = stack.pop()
        basic, children = expand(node)
        share = reach / (len(children) + 1)
        out[basic.rays_mask, basic.hat_mask] = share
        stack += [(child, share) for child in children]
    return out


class TestFrozenRootsPairWithTheHat:
    """Exhaustive form of the property the oracle samples."""

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_every_basic_subset(self, corpus):
        assert analyses(corpus)
        checked = 0
        for analysis in analyses(corpus):
            fan = analysis.fan
            positive = {}  # distinguished ray -> per in-U root, its positive rays
            for root in analysis.roots:
                if root.in_u:
                    pairing = (sum(a * b for a, b in zip(root.e, v)) for v in fan.ray_vectors())
                    mask = ray_mask(r for r, p in enumerate(pairing) if p > 0)
                    positive.setdefault(root.distinguished_ray, []).append(mask)
            for b in enumerated(analysis):
                for rho in _bits(b.rays_mask | b.hat_mask):
                    for mask in positive.get(rho, ()):
                        assert mask & b.hat_mask, (fan.ray_vectors(), b.rays, b.hat, rho)
                        checked += 1
        assert checked >= 100


class TestRandomDescent:
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_draws_are_enumerated_records(self, corpus):
        for analysis in analyses(corpus):
            known = set(pairs(enumerated(analysis)))
            drawn = draws(analysis, 11, 200)
            assert set(pairs(drawn)) <= known
            assert all(b.in_x_hat is None for b in drawn)

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_every_basic_subset_can_be_drawn(self, corpus):
        for analysis in analyses(corpus):
            probabilities = descent_probabilities(analysis)
            assert sorted(probabilities) == sorted(pairs(enumerated(analysis)))
            assert min(probabilities.values()) > 0
            assert sum(probabilities.values()) == pytest.approx(1)

    def test_small_fans_are_covered(self):
        """At most 4000 draws hit every basic subset of a fan with at most 64 of
        them, when the rarest has probability at least 1/400 (a miss is then
        below e^-10 per record). A few random surfaces have records drawn
        with probability 1/2520; `test_every_basic_subset_can_be_drawn`
        covers them."""
        covered = 0
        for corpus in sorted(CORPORA):
            for analysis in analyses(corpus):
                probabilities = descent_probabilities(analysis)
                if len(probabilities) > 64 or min(probabilities.values()) < 1 / 400:
                    continue
                rng = random.Random(3)
                seen = set()
                for b in islice(random_basic_subsets(analysis.classes, analysis.precedence, rng), 4000):
                    seen.add((b.rays_mask, b.hat_mask))
                    if len(seen) == len(probabilities):
                        break
                assert seen == set(probabilities)
                covered += 1
        assert covered >= 250

    def test_same_seed_same_draws(self):
        analysis = analyze_fan(p3_draw(6))
        first = pairs(draws(analysis, 5, 300))
        assert pairs(draws(analysis, 5, 300)) == first
        assert pairs(draws(analysis, 6, 300)) != first
        assert len(set(first)) > 50

    def test_each_node_is_expanded_once(self):
        drawn = draws(analyze_fan(p3_draw(6)), 5, 300)
        assert len({id(b) for b in drawn}) == len(set(pairs(drawn))) < len(drawn)


def reference_oracle_check(analysis, seed: int, trials: int = 30) -> dict:
    """Seeded spot-check of the action simulator against the analysis.

    On a radiant fan all basic subsets are enumerated. On a finite verdict,
    the (rays, hat) pairs of those inside the quotient domain must be the
    catalog's, read off the maximal cones; otherwise `InvariantViolation` is
    raised. Then, on random points of random strata, unipotent root
    subgroups whose distinguished ray sits in the member-or-hat set must act
    trivially and the torus must preserve zero patterns.
    """
    if analysis.bilateral is None:
        return {"seed": seed, "trials": 0, "failures": 0}
    basics = with_membership(
        analysis.fan, enumerate_basic_subsets(analysis.classes, analysis.precedence)
    )
    if analysis.verdict.finite:
        found = sorted((b.rays_mask, b.hat_mask) for b in basics if b.in_x_hat)
        read = sorted((r.basic.rays_mask, r.basic.hat_mask) for r in analysis.catalog)
        if found != read:
            raise InvariantViolation(
                "the orbit catalog differs from the basic subsets in the quotient domain"
            )
    rng = random.Random(seed)
    in_u_roots = [r for r in analysis.roots if r.in_u]
    failures = 0
    for _ in range(trials):
        basic = rng.choice(basics)
        point = random_stratum_point(analysis.fan, basic, rng)
        frozen = set(basic.rays) | set(basic.hat)
        candidates = [r for r in in_u_roots if r.distinguished_ray in frozen]
        if candidates:
            root = rng.choice(candidates)
            moved = apply_root(point, root, random_rational(rng, nonzero=True))
            if moved.coords != point.coords:
                failures += 1
        torus = [random_rational(rng, nonzero=True) for _ in range(analysis.classes.k)]
        scaled = apply_torus(point, torus, analysis.classes)
        if scaled.zero_pattern() != point.zero_pattern():
            failures += 1
    return {"seed": seed, "trials": trials, "failures": failures}


def descent_reference_oracle_check(analysis, seed: int, trials: int = 30) -> dict:
    """Seeded spot-check of the action simulator against the analysis.

    On a finite verdict all basic subsets are enumerated: the (rays, hat)
    pairs of those inside the quotient domain must be the catalog's, read off
    the maximal cones, or `InvariantViolation` is raised, and each trial
    draws one of them. On an infinite verdict each trial's basic subset comes
    from one seeded random descent of the basic-subset search, and none is
    enumerated. Then, on random points of the drawn strata, unipotent root
    subgroups whose distinguished ray sits in the member-or-hat set must act
    trivially and the torus must preserve zero patterns.
    """
    if analysis.bilateral is None:
        return {"seed": seed, "trials": 0, "failures": 0}
    rng = random.Random(seed)
    if analysis.verdict.finite:
        basics = with_membership(
            analysis.fan, enumerate_basic_subsets(analysis.classes, analysis.precedence)
        )
        found = sorted((b.rays_mask, b.hat_mask) for b in basics if b.in_x_hat)
        read = sorted((r.basic.rays_mask, r.basic.hat_mask) for r in analysis.catalog)
        if found != read:
            raise InvariantViolation(
                "the orbit catalog differs from the basic subsets in the quotient domain"
            )
        draws = (rng.choice(basics) for _ in range(trials))
    else:
        draws = random_basic_subsets(analysis.classes, analysis.precedence, rng)
    in_u_roots = [r for r in analysis.roots if r.in_u]
    failures = 0
    for basic in islice(draws, trials):
        point = random_stratum_point(analysis.fan, basic, rng)
        frozen = set(basic.rays) | set(basic.hat)
        candidates = [r for r in in_u_roots if r.distinguished_ray in frozen]
        if candidates:
            root = rng.choice(candidates)
            moved = apply_root(point, root, random_rational(rng, nonzero=True))
            if moved.coords != point.coords:
                failures += 1
        torus = [random_rational(rng, nonzero=True) for _ in range(analysis.classes.k)]
        scaled = apply_torus(point, torus, analysis.classes)
        if scaled.zero_pattern() != point.zero_pattern():
            failures += 1
    return {"seed": seed, "trials": trials, "failures": failures}


def recording(log, draw):
    """`draw` with each call's basic subset appended to `log`."""

    def record(fan_or_size, basic, rng):
        log.append((basic.rays_mask, basic.hat_mask, basic.in_x_hat))
        return draw(fan_or_size, basic, rng)

    return record


def hatless(classes, precedence, rng, draw=random_basic_subsets):
    """The descent's draws with their hats emptied."""
    for b in draw(classes, precedence, rng):
        yield BasicSubset(b.rays_mask, 0)


def forbidden(name):
    def call(*args, **kwargs):
        raise RuntimeError(f"the oracle called {name}")

    return call


class TestOracleAgainstReference:
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_finite_verdicts_draw_the_same_trials(self, corpus, monkeypatch):
        finite = [a for a in analyses(corpus) if a.verdict.finite]
        if corpus != "p3_draws":
            assert finite
        for analysis in finite:
            for seed in (0, 9):
                fast, slow = [], []
                monkeypatch.setattr(unifan.cli, "_stratum_zeros", recording(fast, _stratum_zeros))
                result = _oracle_check(analysis, seed)
                monkeypatch.setitem(
                    globals(), "random_stratum_point", recording(slow, random_stratum_point)
                )
                expected = reference_oracle_check(analysis, seed)
                monkeypatch.undo()
                assert len(fast) == 30 and fast == slow
                assert result == expected == {"seed": seed, "trials": 30, "failures": 0}

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_infinite_verdicts_match_the_descent_reference(self, corpus):
        infinite = [a for a in analyses(corpus) if not a.verdict.finite]
        if corpus in ("family_specs", "random_surfaces", "p3_draws"):
            assert infinite
        for analysis in infinite:
            for seed in range(6):
                assert _oracle_check(analysis, seed) == descent_reference_oracle_check(
                    analysis, seed
                )

    @pytest.mark.parametrize("corpus", ["family_specs", "random_surfaces", "p3_draws"])
    def test_infinite_verdicts_enumerate_nothing(self, corpus, monkeypatch):
        infinite = [a for a in analyses(corpus) if not a.verdict.finite]
        assert infinite
        monkeypatch.setattr(unifan.cli, "enumerate_basic_subsets", forbidden("enumerate"))
        monkeypatch.setattr(unifan.cli, "with_membership", forbidden("with_membership"))
        for analysis in infinite:
            assert _oracle_check(analysis, 4) == {"seed": 4, "trials": 30, "failures": 0}

    def test_empty_hats_are_caught(self, monkeypatch):
        """Drawn records with their hats emptied make the sampled check fail,
        as often as they make the rational simulator fail."""
        monkeypatch.setattr(unifan.cli, "random_basic_subsets", hatless)
        monkeypatch.setitem(globals(), "random_basic_subsets", hatless)
        for corpus in ("random_surfaces", "p3_draws"):
            infinite = [a for a in analyses(corpus) if not a.verdict.finite]
            counts = [_oracle_check(a, 0)["failures"] for a in infinite]
            assert counts == [descent_reference_oracle_check(a, 0)["failures"] for a in infinite]
            assert sum(counts) > 0

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_empty_hats_match_the_descent_reference(self, corpus, monkeypatch):
        monkeypatch.setattr(unifan.cli, "random_basic_subsets", hatless)
        monkeypatch.setitem(globals(), "random_basic_subsets", hatless)
        for analysis in analyses(corpus):
            if not analysis.verdict.finite:
                for seed in range(6):
                    assert _oracle_check(analysis, seed) == descent_reference_oracle_check(
                        analysis, seed
                    )

    def test_a_negative_pairing_raises(self, monkeypatch):
        """A root that pairs negatively with a non-distinguished ray is refused,
        as `apply_root` refuses it."""
        analysis = analyze_fan(family("pn:2"))
        # Rays (1, 0), (0, 1), (-1, -1): e pairs to -1 with rays 0 and 1.
        bad = DemazureRoot(e=(-1, -1), distinguished_ray=0, semisimple=False, in_u=True)
        monkeypatch.setitem(vars(analysis), "roots", [bad])
        monkeypatch.setitem(vars(analysis), "root_slices", ([[bad.e], [], []], frozenset()))
        for check in (_oracle_check, reference_oracle_check, descent_reference_oracle_check):
            with pytest.raises(ValueError, match="pairs negatively with a non-distinguished ray"):
                check(analysis, 0)


class TestZeroMasksInLockstep:
    """Each draw of the oracle against the same draw of the `coxspace`
    simulator, on two generators seeded alike: the same zero pattern, the
    same verdict of every in-U root, the same state after the torus. The
    oracle only picks roots whose distinguished ray is a member or in the
    hat, which never move the point; the others here do move some."""

    @pytest.mark.parametrize("corpus", ["fixtures", "random_surfaces"])
    def test_every_basic_subset(self, corpus):
        outcomes = {True: 0, False: 0}
        for analysis in analyses(corpus):
            fan = analysis.fan
            in_u = [r for r in analysis.roots if r.in_u]
            for basic in enumerated(analysis):
                frozen = basic.rays_mask | basic.hat_mask
                for seed in range(6):
                    fast, slow = random.Random(seed), random.Random(seed)
                    zeros = _stratum_zeros(fan.num_rays, basic, fast)
                    point = random_stratum_point(fan, basic, slow)
                    assert zeros == ray_mask(point.zero_pattern())
                    for root in in_u:
                        _nonzero_draw(fast)
                        moved = apply_root(point, root, random_rational(slow, nonzero=True))
                        moves = zeros & _monomial_rays(fan, root.distinguished_ray, root.e) == 0
                        assert moves == (moved.coords != point.coords)
                        assert not (moves and frozen >> root.distinguished_ray & 1)
                        outcomes[moves] += 1
                    for _ in range(analysis.classes.k):
                        _nonzero_draw(fast)
                    torus = [random_rational(slow, nonzero=True) for _ in range(analysis.classes.k)]
                    scaled = apply_torus(point, torus, analysis.classes)
                    assert scaled.zero_pattern() == point.zero_pattern()
                    assert fast.getstate() == slow.getstate()
        assert min(outcomes.values()) >= 100, outcomes


def write_fan(path, fan):
    path.write_text(json.dumps(unifan.cli.fan_file_payload(fan)))
    return str(path)


class TestCheckWithoutEnumeration:
    """`analyze --check` on infinite verdicts, with the enumeration and the
    membership flags replaced by functions that fail when called."""

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        monkeypatch.setattr("unifan.cli.enumerate_basic_subsets", forbidden("enumerate"))
        monkeypatch.setattr("unifan.cli.with_membership", forbidden("with_membership"))

    def check(self, capsys, *argv):
        code = main(["analyze", *argv, "--format", "json", "--check"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report
        assert report["verdict"]["finite"] is False
        assert report["oracle"] == {"seed": 0, "trials": 30, "failures": 0}

    def test_weighted_123(self, capsys, no_enumeration):
        self.check(capsys, "--family", "wps:1,2,3")

    def test_eighteen_ray_draw(self, capsys, tmp_path, no_enumeration):
        fan = p3_draw(14)
        assert fan.num_rays == 18
        self.check(capsys, write_fan(tmp_path / "draw14.json", fan))

    def test_twenty_six_ray_draw_in_a_subprocess(self, tmp_path):
        """The 26-ray draw's basic subsets do not fit in memory; `--check`
        draws its trials without them."""
        rays, cones = radiant_p3_draw(22)
        assert len(rays) == 26
        path = tmp_path / "draw22.json"
        path.write_text(json.dumps({"dim": 3, "rays": rays, "max_cones": cones}))
        src = os.path.dirname(os.path.dirname(unifan.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", CHECK_WITHOUT_ENUMERATION, str(path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        report = json.loads(proc.stdout)
        assert report["verdict"]["witness_cone"] == [3]
        assert report["oracle"] == {"seed": 0, "trials": 30, "failures": 0}


# Runs `unifan analyze <path> --format json --check` with the enumeration and
# the membership flags replaced by functions that fail when called.
CHECK_WITHOUT_ENUMERATION = """\
import sys
import unifan.cli


def forbidden(*args, **kwargs):
    raise RuntimeError("the oracle enumerated basic subsets")


unifan.cli.enumerate_basic_subsets = unifan.cli.with_membership = forbidden
sys.exit(unifan.cli.main(["analyze", sys.argv[1], "--format", "json", "--check"]))
"""
