"""Acceptance suite: one pass/fail line per criterion (run with pytest -s)."""

import random
import time
from itertools import combinations, product

from unifan.classgroup import radiant_classes
from unifan.coxspace import apply_root, random_rational, random_stratum_point
from unifan.demazure import compute_precedence
from unifan.families import FamilySpec, InvalidSpec, build, cross_check
from unifan.linalg import rational_rank
from unifan.orbits import enumerate_basic_subsets
from unifan.pipeline import analyze_fan
from unifan.radiance import find_bilateral, iter_bilateral_structures

from conftest import (
    classes_independent,
    del_pezzo6,
    family,
    finiteness_verdict,
    negative_surface,
    precedes,
)

ORACLE_FANS = ["hirzebruch:1", "hirzebruch:2", "pn:2", "p1xp1", "wps:1,1,2", "wps:1,1,2,4"]


def check(name, condition, detail="", started=None, budget=5.0):
    elapsed = time.perf_counter() - started if started is not None else None
    suffix = f" ({detail})" if detail else ""
    if elapsed is not None:
        suffix += f" [{elapsed:.2f}s]"
    print(f"[acceptance] {name}: {'PASS' if condition else 'FAIL'}{suffix}")
    assert condition, f"{name}{suffix}"
    if elapsed is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_weighted_112():
    started = time.perf_counter()
    analysis = analyze_fan(family("wps:1,1,2"))
    counts = [len(r.t_orbit_cones) for r in analysis.catalog]
    ok = (
        analysis.verdict.finite
        and analysis.verdict.orbit_count == 3
        and counts == [4, 2, 1]
        and sum(counts) == len(analysis.fan.all_cones) == 7
    )
    check(
        "criterion 1: wps 1,1,2 finite with 3 orbits, cone counts (4,2,1)",
        ok,
        f"count={analysis.verdict.orbit_count}, cones={counts}",
        started,
    )


def test_criterion_2_weighted_1124():
    started = time.perf_counter()
    verdict = finiteness_verdict(family("wps:1,1,2,4"))
    check(
        "criterion 2: wps 1,1,2,4 finite with 4 orbits",
        verdict.finite and verdict.orbit_count == 4,
        f"verdict={verdict}",
        started,
    )


def test_criterion_2_weighted_1123():
    started = time.perf_counter()
    verdict = finiteness_verdict(family("wps:1,1,2,3"))
    check(
        "criterion 2: wps 1,1,2,3 infinite",
        not verdict.finite,
        f"reason={verdict.reason}",
        started,
    )


def test_criterion_2_weighted_123():
    started = time.perf_counter()
    verdict = finiteness_verdict(family("wps:1,2,3"))
    ok = (
        not verdict.finite
        and verdict.reason == "non_free_monoid"
        and verdict.witness_irreducibles == ((2,), (3,))
    )
    check(
        "criterion 2: wps 1,2,3 infinite with witness monoid <2,3>",
        ok,
        f"witness={verdict.witness_irreducibles}",
        started,
    )


def test_criterion_2_weighted_122():
    # Stated expectation: Infinite with a non-free witness monoid. The
    # weights (1,2,2) put the negative ray at -(2,2), which is not a
    # primitive vector, and the underlying variety is the plane (weights
    # (1,2,2) reduce to (1,1,1)); every consistent construction is finite,
    # so this criterion cannot pass as written. Asserted faithfully anyway.
    started = time.perf_counter()
    ok = False
    detail = ""
    try:
        verdict = finiteness_verdict(family("wps:1,2,2"))
        ok = not verdict.finite and verdict.witness_irreducibles is not None
        detail = f"verdict finite={verdict.finite}"
    except InvalidSpec as exc:
        detail = f"not constructible: {exc}"
    check(
        "criterion 2: wps 1,2,2 infinite with non-free witness",
        ok,
        detail,
        started,
    )


def test_criterion_3_surface_trichotomy():
    started = time.perf_counter()
    details = []
    ok = True
    for d in range(1, 6):
        analysis = analyze_fan(family(f"hirzebruch:{d}"))
        counts = [len(r.t_orbit_cones) for r in analysis.catalog]
        good = (
            analysis.verdict.finite
            and analysis.verdict.orbit_count == 4
            and counts == [4, 2, 2, 1]
        )
        ok = ok and good
        details.append(f"F{d}:{analysis.verdict.orbit_count}")
    for spec, expected in (("p1xp1", 4), ("pn:2", 3)):
        verdict = finiteness_verdict(family(spec))
        ok = ok and verdict.finite and verdict.orbit_count == expected
        details.append(f"{spec}:{verdict.orbit_count}")
    check(
        "criterion 3: Hirzebruch 1..5, P1xP1, P2 finite with stated orbit counts",
        ok,
        " ".join(details),
        started,
    )


def test_criterion_4_hirzebruch_two_classes():
    started = time.perf_counter()
    fan = family("hirzebruch:2")
    table = radiant_classes(fan, find_bilateral(fan))
    eps1, eps2 = table.class_of(0), table.class_of(1)
    tau1, tau2 = table.class_of(2), table.class_of(3)
    ok = eps1 == tau1 and eps2 == tuple(2 * a + b for a, b in zip(tau1, tau2))
    check(
        "criterion 4: hirzebruch 2 fan reports class(eps1)=class(tau1), "
        "class(eps2)=2*class(tau1)+class(tau2)",
        ok,
        f"classes={table.classes}",
        started,
    )


def test_criterion_5_negative_surface():
    started = time.perf_counter()
    ok = True
    details = []
    for d in (2, 3):
        verdict = finiteness_verdict(negative_surface(d))
        good = (
            not verdict.finite
            and verdict.witness_cone is not None
            and verdict.witness_cone.ray_indices == (2,)
            and verdict.witness_irreducibles is not None
            and len(verdict.witness_irreducibles) == 3
        )
        ok = ok and good
        details.append(f"d={d}:{verdict.witness_irreducibles}")
    check(
        "criterion 5: rays (1,0),(0,1),(-1,-d),(-1,0) infinite with witness "
        "cone tau1 and three irreducibles",
        ok,
        "; ".join(details),
        started,
    )


def test_criterion_6_del_pezzo_not_radiant():
    started = time.perf_counter()
    fan = del_pezzo6()
    verdict = finiteness_verdict(fan)
    exhaustive = list(iter_bilateral_structures(fan))
    check(
        "criterion 6: del Pezzo 6 infinite (not radiant), basis search exhaustive",
        (not verdict.finite)
        and verdict.reason == "not_radiant"
        and not exhaustive,
        f"witnesses found={len(exhaustive)}",
        started,
    )


def _prepared(fan):
    bilateral = find_bilateral(fan)
    classes = radiant_classes(fan, bilateral)
    return bilateral, classes, compute_precedence(bilateral, classes)


def test_criterion_7a_partition_invariant():
    started = time.perf_counter()
    total_patterns = 0
    for spec in ORACLE_FANS:
        fan = family(spec)
        assert fan.num_rays <= 14
        _, classes, precedence = _prepared(fan)
        basics = enumerate_basic_subsets(classes, precedence)
        for size in range(fan.num_rays + 1):
            for zeros in combinations(range(fan.num_rays), size):
                zero_set = set(zeros)
                owners = sum(
                    1
                    for b in basics
                    if not (set(b.rays) & zero_set) and set(b.hat) <= zero_set
                )
                assert owners == 1, (spec, zeros, owners)
                total_patterns += 1
    check(
        "criterion 7a: stratum partition exhaustive over all zero patterns",
        total_patterns > 0,
        f"{total_patterns} patterns over {len(ORACLE_FANS)} fans",
        started,
    )


def test_criterion_7b_gale_duality():
    started = time.perf_counter()
    checked = 0
    for spec in ORACLE_FANS:
        fan = family(spec)
        _, classes, precedence = _prepared(fan)
        for b in enumerate_basic_subsets(classes, precedence):
            complement = [
                fan.ray_vector(r) for r in range(fan.num_rays) if r not in b.rays
            ]
            assert classes_independent(classes, b) == (rational_rank(complement) == fan.dim)
            checked += 1
    check(
        "criterion 7b: independence of classes matches complement span",
        checked > 0,
        f"{checked} basic subsets",
        started,
    )


def test_criterion_7c_action_and_root_oracles():
    started = time.perf_counter()
    rng = random.Random(20250810)
    trivial_trials = 0
    constancy_trials = 0
    pair_checks = 0
    for spec in ORACLE_FANS:
        fan = family(spec)
        analysis = analyze_fan(fan)
        bilateral, classes, precedence = (
            analysis.bilateral,
            analysis.classes,
            analysis.precedence,
        )
        in_u = [r for r in analysis.roots if r.in_u]

        # trivial action on member-or-hat distinguished rays
        basics = enumerate_basic_subsets(analysis.classes, analysis.precedence)
        for basic in basics:
            frozen = set(basic.rays) | set(basic.hat)
            for root in in_u:
                if root.distinguished_ray not in frozen:
                    continue
                for _ in range(5):
                    point = random_stratum_point(fan, basic, rng)
                    s = random_rational(rng, nonzero=True)
                    assert apply_root(point, root, s).coords == point.coords
                    trivial_trials += 1

        # member coordinates constant under random unipotent-subgroup words
        for basic in basics:
            for _ in range(5):
                point = random_stratum_point(fan, basic, rng)
                moved = point
                for _ in range(4):
                    moved = apply_root(moved, rng.choice(in_u), random_rational(rng))
                assert all(
                    moved.coords[r] == point.coords[r] for r in basic.rays
                )
                constancy_trials += 1

        # root characterizations of the precedence order
        duals = bilateral.dual_basis
        root_index = {(r.e, r.distinguished_ray): r for r in analysis.roots}

        def pairing(e, vec):
            return sum(a * b for a, b in zip(e, vec))

        for a in range(fan.num_rays):
            for b in range(fan.num_rays):
                if a == b:
                    continue
                matches = [
                    r
                    for r in analysis.roots
                    if r.distinguished_ray == b
                    and r.in_u
                    and pairing(r.e, fan.ray_vector(a)) == 1
                    and all(
                        pairing(r.e, fan.ray_vector(c)) == 0
                        for c in range(fan.num_rays)
                        if c not in (a, b)
                    )
                ]
                assert len(matches) <= 1
                assert precedes(precedence, a, b) == bool(matches)
                pair_checks += 1
        for i, eps_i in enumerate(bilateral.positive):
            for j, eps_j in enumerate(bilateral.positive):
                if i == j:
                    continue
                e = tuple(x - y for x, y in zip(duals[i], duals[j]))
                root = root_index.get((e, eps_j))
                holds = (
                    root is not None
                    and root.in_u
                    and all(
                        pairing(e, fan.ray_vector(tau)) == 0
                        for tau in bilateral.negative
                    )
                )
                assert precedes(precedence, eps_i, eps_j) == holds
        for tau in bilateral.negative:
            for j, eps_j in enumerate(bilateral.positive):
                e = tuple(-x for x in duals[j])
                root = root_index.get((e, eps_j))
                holds = (
                    root is not None
                    and root.in_u
                    and pairing(e, fan.ray_vector(tau)) == 1
                    and all(
                        pairing(e, fan.ray_vector(other)) == 0
                        for other in bilateral.negative
                        if other != tau
                    )
                )
                assert precedes(precedence, tau, eps_j) == holds
    check(
        "criterion 7c: action invariance and root characterizations (seeded)",
        trivial_trials >= 100 and constancy_trials >= 100 and pair_checks >= 50,
        f"{trivial_trials} trivial-action, {constancy_trials} constancy, "
        f"{pair_checks} exhaustive pair checks, 0 failures",
        started,
    )


def test_criterion_7d_root_count_fixtures():
    started = time.perf_counter()

    def brute_force(fan, box=8):
        out = []
        for rho in range(fan.num_rays):
            for e in product(range(-box, box + 1), repeat=fan.dim):
                pairings = [
                    sum(a * b for a, b in zip(e, fan.ray_vector(r)))
                    for r in range(fan.num_rays)
                ]
                if pairings[rho] == -1 and all(
                    p >= 0 for r, p in enumerate(pairings) if r != rho
                ):
                    out.append((rho, e))
        return sorted(out)

    p2 = analyze_fan(family("pn:2"))
    f2 = analyze_fan(family("hirzebruch:2"))
    ok = (
        len(p2.roots) == 6
        and all(r.semisimple for r in p2.roots)
        and brute_force(p2.fan) == sorted((r.distinguished_ray, r.e) for r in p2.roots)
        and len(f2.roots) == 5
        and sum(r.semisimple for r in f2.roots) == 2
        and sum(not r.semisimple for r in f2.roots) == 3
        and brute_force(f2.fan) == sorted((r.distinguished_ray, r.e) for r in f2.roots)
    )
    check(
        "criterion 7d: root counts P2=6 all semisimple, F2=5 (2+3), "
        "independently re-derived by box enumeration",
        ok,
        f"P2={len(p2.roots)}, F2={len(f2.roots)}",
        started,
    )


def test_criterion_8_consistency_sweep():
    started = time.perf_counter()
    fans_checked = 0
    finite_count = 0
    for d in range(0, 11):
        _sweep_one(build(FamilySpec(kind="hirzebruch", parameter=d)))
        fans_checked += 1
    for n in range(1, 5):
        tail_length = n - 1
        for tail in product(range(1, 7), repeat=tail_length):
            weights = (1, 1) + tail
            analysis = _sweep_one(build(FamilySpec(kind="wps", weights=weights)))
            fans_checked += 1
            if analysis.verdict.finite:
                finite_count += 1
                assert analysis.verdict.orbit_count == n + 1, weights
    check(
        "criterion 8: verdict/recognizer consistency sweep",
        fans_checked == 11 + 1 + 6 + 36 + 216,
        f"{fans_checked} fans, {finite_count} finite weighted specs",
        started,
        budget=60.0,
    )


def _sweep_one(fan):
    analysis = analyze_fan(fan)
    report = cross_check(fan, analysis.verdict)
    assert report.agree, (fan.ray_vectors(), analysis.verdict, report)
    if analysis.verdict.finite:
        total = sum(len(r.t_orbit_cones) for r in analysis.catalog)
        assert total == len(fan.all_cones)
    return analysis
