"""Command-line surface: fan file format, analysis reports, family builders."""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache
from itertools import chain, islice
from operator import mul

from . import __version__
from .families import InvalidSpec, NotApplicable, build, cross_check, parse_family
from .fan import Fan, FanError, _is_int, validate_fan
from .linalg import InvariantViolation, TooLarge
from .orbits import enumerate_basic_subsets, random_basic_subsets, with_membership
from .pipeline import FanAnalysis, analyze_fan

_JSON_SAFE = 2**53 - 1


class FanFileError(Exception):
    pass


class UsageError(Exception):
    pass


def load_fan_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FanFileError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers json.JSONDecodeError and the interpreter's limit
        # on the digits of an integer literal.
        raise FanFileError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FanFileError("fan file must be a JSON object")
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise FanFileError(f"fan file is missing {key!r}")
    dim, rays, max_cones = data["dim"], data["rays"], data["max_cones"]
    if not _is_int(dim):
        raise FanFileError("dim must be an integer")
    if not isinstance(rays, list) or not all(
        isinstance(r, list) and all(_is_int(x) for x in r) for r in rays
    ):
        raise FanFileError("rays must be a list of integer vectors")
    if not isinstance(max_cones, list) or not all(
        isinstance(c, list) and all(_is_int(i) for i in c) for c in max_cones
    ):
        raise FanFileError("max_cones must be a list of ray-index lists")
    return dim, rays, max_cones


def fan_file_payload(fan: Fan) -> dict:
    return {
        "dim": fan.dim,
        "rays": [list(v) for v in fan.ray_vectors()],
        "max_cones": [list(c.ray_indices) for c in fan.max_cones],
    }


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str = "") -> str:
    """The text of `json.dumps(value, indent=2)` for a report tree of dicts
    with str keys, lists, tuples, str, int, bool and None, in one pass (with
    `indent`, Python's encoder falls back to its generator-based pure-Python
    path). Integers beyond 2^53 - 1 in magnitude are written as strings so
    consumers never lose precision."""
    kind = type(value)
    if kind is int:
        return repr(value) if -_JSON_SAFE <= value <= _JSON_SAFE else f'"{value}"'
    if kind is str:
        return _encode_str(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_json_text(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_encode_str(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    for base in (int, str, list, tuple, dict):
        if isinstance(value, base):  # subclasses such as IntEnum
            return _json_text(base(value), indent)
    raise TypeError(f"cannot serialize {type(value)!r}")


_KIND_TEXT = {True: '"semisimple"', False: '"unipotent"'}
_FLAG_TEXT = {True: "true", False: "false", None: "null"}


def _in_u(e, semisimple, v) -> bool | None:
    """Whether the root `e` lies in the maximal unipotent subgroup of `v`:
    unipotent roots always, semisimple ones iff <e, v> > 0. None off radiant
    fans, where no `v` is chosen."""
    if v is None:
        return None
    return e not in semisimple or sum(map(mul, e, v)) > 0


def report_json(report: dict, roots=None) -> str:
    """The text of `_json_text(report)` with, given `roots`, the report's
    `roots` object extended by a `list` of one object per Demazure root
    (`e`, `distinguished_ray`, `kind`, `in_unipotent_group`), as
    `json.dumps(..., indent=2)` would write it after the 2^53 rule.

    `roots` is the pair (slices, semisimple) of `FanAnalysis.root_slices`;
    the flags read the report's own `v`, None off radiant fans. The roots are
    written per ray (`_root_list_chunks`), so no record or per-root dict is
    built, and the `orbits` block by `_orbit_chunks`. All the chunks of the
    report go into one flat list that is joined once.
    """
    chunks = ["{"]
    sep = "\n  "
    for key, value in report.items():
        chunks += (sep, _encode_str(key), ": ")
        sep = ",\n  "
        if key == "orbits":
            _orbit_chunks(value, chunks)
            continue
        if key != "roots":
            chunks.append(_json_text(value, "  "))
            continue
        lead = "{"
        for name, count in value.items():
            chunks += (lead, "\n    ", _encode_str(name), ": ", _json_text(count, "    "))
            lead = ","
        if roots is not None:
            chunks += (lead, '\n    "list": ')
            _root_list_chunks(*roots, report["v"], chunks)
        chunks.append("\n  }")
    chunks.append("\n}")
    return "".join(chunks)


def _root_list_chunks(slices, semisimple, v, chunks: list) -> None:
    """Append the JSON text of the root list at its fixed indent to `chunks`,
    one chunk per root, each with the separator before it.

    A ray's roots are written with one format string per (kind, flag), in
    which the ray, the kind and the flag are fixed, filled with the bare `e`
    tuple (every root of a fan has the fan's dimension). A root is unipotent
    and in U unless its `e` is semisimple; then it is in U iff <e, v> > 0.
    Off radiant fans (`v` is None) every flag is null. A ray index is a list
    position, so only the entries of `e` can pass 2^53 - 1.
    """
    first = len(chunks)
    chunks.append("[")
    big = max(map(abs, chain.from_iterable(chain.from_iterable(slices))), default=0) > _JSON_SAFE
    for rho, found in enumerate(slices):
        if not found:
            continue
        head = (
            ',\n      {\n        "e": [\n'
            + ",\n".join(["          %s"] * len(found[0]))
            + '\n        ],\n        "distinguished_ray": '
            + str(rho)
            + ',\n        "kind": '
        )
        templates = {
            (kind, flag): head + _KIND_TEXT[kind] + ',\n        "in_unipotent_group": '
            + _FLAG_TEXT[flag] + "\n      }"
            for kind in (False, True)
            for flag in (True, False, None)
        }
        values = [tuple(map(_json_text, e)) for e in found] if big else found
        if semisimple.isdisjoint(found):
            chunks += map(templates[False, None if v is None else True].__mod__, values)
        else:
            chunks += [
                templates[e in semisimple, _in_u(e, semisimple, v)] % value
                for e, value in zip(found, values)
            ]
    if len(chunks) == first + 1:
        chunks[first] = "[]"
    else:
        chunks[first + 1] = chunks[first + 1][1:]  # no comma before the first root
        chunks.append("\n    ]")


_RECORD_HEAD = (
    '%s{\n        "rays": %s,\n        "hat": %s,\n        "dimension": %s,'
    '\n        "t_orbit_cones": '
)


def _orbit_chunks(orbits: dict, chunks: list) -> None:
    """Append the text `_json_text(orbits, "  ")` of the report's `orbits`
    block to `chunks`, one chunk per record head and per torus-orbit cone.

    A record's `rays`, `hat` and `dimension` go through `_json_text`. Each
    cone, a tuple of ray indices, fills the `%` template of its length,
    built once per call, with the separator before it; length 0 is the
    empty cone, written `[]`. The block needs no 2^53 check: every int in it
    is a ray index (a list position) or a dimension of at most `fan.dim`.
    """
    lead = "{"
    for name, value in orbits.items():
        chunks += (lead, "\n    ", _encode_str(name), ": ")
        lead = ","
        if name != "records" or not value:
            chunks.append(_json_text(value, "    "))
            continue
        longest = max(map(len, chain.from_iterable(r["t_orbit_cones"] for r in value)), default=0)
        templates = [",\n          []"] + [
            ",\n          [\n" + ",\n".join(["            %d"] * n) + "\n          ]"
            for n in range(1, longest + 1)
        ]
        sep = "[\n      "
        for rec in value:
            chunks.append(
                _RECORD_HEAD
                % (
                    sep,
                    _json_text(rec["rays"], "        "),
                    _json_text(rec["hat"], "        "),
                    _json_text(rec["dimension"], "        "),
                )
            )
            sep = ",\n      "
            cones = rec["t_orbit_cones"]
            if not cones:
                chunks.append("[]\n      }")
                continue
            first = len(chunks)
            chunks += [templates[len(c)] % c for c in cones]
            chunks[first] = "[" + chunks[first][1:]  # no comma before the first cone
            chunks.append("\n        ]\n      }")
        chunks.append("\n    ]")
    chunks.append("\n  }")


def _verdict_payload(verdict) -> dict:
    return {
        "finite": verdict.finite,
        "orbit_count": verdict.orbit_count,
        "reason": verdict.reason,
        "witness_cone": list(verdict.witness_cone.ray_indices)
        if verdict.witness_cone is not None
        else None,
        "witness_irreducibles": [list(v) for v in verdict.witness_irreducibles]
        if verdict.witness_irreducibles is not None
        else None,
    }


def _numerator(rng) -> int:
    """Draw the rational p/q of `coxspace.random_rational` and keep only p,
    which is zero iff the rational is.

    The draws are the `getrandbits` words that CPython's `randint` reads
    (`_randbelow_with_getrandbits`): for p = `randint(-9, 9)`, 5-bit words
    until one is below 19, minus 9; for q = `randint(1, 9)`, 4-bit words
    until one is below 9. The generator ends in the state `random_rational`
    leaves, which `TestDrawsInLockstep` and `TestZeroMasksInLockstep` check.
    """
    bits = rng.getrandbits
    p = bits(5)
    while p >= 19:
        p = bits(5)
    while bits(4) >= 9:
        pass
    return p - 9


def _nonzero_draw(rng) -> None:
    """Make the draws of one nonzero rational: p/q pairs until p != 0."""
    while not _numerator(rng):
        pass


def _stratum_zeros(num_rays: int, basic, rng) -> int:
    """The zero mask of a random point of a basic subset's stratum.

    Per ray, in order: a hat ray is zero; a member is a nonzero rational p/q;
    any other ray is zero with probability 1/4, else p/q with p in [-9, 9],
    zero iff p = 0. Only which coordinates vanish is kept, from the same
    `rng` calls that draw the point's rationals.
    """
    zeros = 0
    for ray in range(num_rays):
        bit = 1 << ray
        if basic.hat_mask & bit:
            zeros |= bit
        elif basic.rays_mask & bit:
            _nonzero_draw(rng)
        elif rng.random() < 0.25 or not _numerator(rng):
            zeros |= bit
    return zeros


def _monomial_rays(fan: Fan, rho: int, e) -> int:
    """The mask of the coordinates the monomial of the root `e` at ray `rho`
    reads: the rays other than `rho` that pair positively with `e`."""
    reads = 0
    for ray, vector in enumerate(fan.rays):
        if ray == rho:
            continue
        exponent = sum(a * b for a, b in zip(e, vector))
        if exponent < 0:
            raise InvariantViolation("root pairs negatively with a non-distinguished ray")
        if exponent:
            reads |= 1 << ray
    return reads


# Trials of one `--check` oracle run.
_ORACLE_TRIALS = 30


def _oracle_check(analysis: FanAnalysis, seed: int) -> dict:
    """Seeded spot-check of the root and torus actions against the analysis.

    On a finite verdict all basic subsets are enumerated: the (rays, hat)
    pairs of those inside the quotient domain must be the catalog's, read off
    the maximal cones, or `InvariantViolation` is raised, and each trial
    draws one of them. On an infinite verdict each trial's basic subset comes
    from one seeded random descent of the basic-subset search, and none is
    enumerated.

    A trial then draws the zero mask of a random point of the stratum
    (`_stratum_zeros`). An in-U root whose distinguished ray is a member or
    in the hat, picked at random, must act trivially: it moves that
    coordinate by s times the monomial of the rays pairing positively with
    its character, with s != 0, so it acts trivially iff one of those
    coordinates is zero. Last the trial draws a torus element of k nonzero
    rationals. Scaling coordinates by products of nonzero rationals never
    changes which of them vanish, so that half of the trial cannot fail in
    exact arithmetic and is not simulated; its draws are still made, so the
    stream, and with it every trial, is the one the rational simulator in
    `coxspace` draws: per trial the basic subset, the point, the root and
    s, then the torus. Each rational is drawn as the `getrandbits` words
    that `randint` reads (see `_numerator`), not through `randint`; the
    lockstep tests of `tests/test_oracle.py` check that the generator's
    state stays the simulator's after every draw and trial. Each picked
    root's monomial mask is found once per call.
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
        draws = (rng.choice(basics) for _ in range(_ORACLE_TRIALS))
    else:
        draws = random_basic_subsets(analysis.classes, analysis.precedence, rng)
    fan = analysis.fan
    slices, semisimple = analysis.root_slices
    in_u_roots = [
        (rho, e)
        for rho, found in enumerate(slices)
        for e in found
        if _in_u(e, semisimple, analysis.v)
    ]
    monomials = {}  # (rho, e) -> its `_monomial_rays`, found when first picked
    failures = 0
    for basic in islice(draws, _ORACLE_TRIALS):
        zeros = _stratum_zeros(fan.num_rays, basic, rng)
        frozen = basic.rays_mask | basic.hat_mask
        candidates = [root for root in in_u_roots if frozen >> root[0] & 1]
        if candidates:
            root = rng.choice(candidates)
            _nonzero_draw(rng)
            reads = monomials.get(root)
            if reads is None:
                reads = monomials[root] = _monomial_rays(fan, *root)
            if not zeros & reads:
                failures += 1
        for _ in range(analysis.classes.k):
            _nonzero_draw(rng)
    return {"seed": seed, "trials": _ORACLE_TRIALS, "failures": failures}


def _root_counts(analysis: FanAnalysis) -> dict:
    """The report's root counts, read off `analysis.root_slices`. A root
    pairs to -1 with exactly one ray, so it lies in exactly one slice, and
    the semisimple set holds each semisimple root once. The in-U count is
    None off radiant fans and needs no `v` on them: every unipotent root is
    in U, and a semisimple one iff it pairs positively with `v`. The
    semisimple set is closed under e -> -e (the pairs (a, b) and (b, a) of
    equal-class rays both occur, with opposite e), and `choose_v` makes
    <e, v> != 0 for each e in it, so exactly one of e and -e pairs
    positively: half of the set is in U."""
    slices, semisimple = analysis.root_slices
    total = sum(map(len, slices))
    unipotent = total - len(semisimple)
    in_u = None
    if analysis.bilateral is not None:
        in_u = unipotent + len(semisimple) // 2
    return {
        "total": total,
        "semisimple": len(semisimple),
        "unipotent": unipotent,
        "in_unipotent_group": in_u,
    }


def build_report(analysis: FanAnalysis, include_orbits, check, seed):
    fan = analysis.fan
    report = {
        "tool": {"name": "unifan", "version": __version__},
        "fan": {
            **fan_file_payload(fan),
            "num_cones": len(fan.all_cones),
            # Both input paths of `cmd_analyze` proved the fan complete.
            "complete": True,
            "simplicial": True,
        },
        "class_group": {
            "free_rank": analysis.class_info.free_rank,
            "torsion_invariants": list(analysis.class_info.torsion_invariants),
        },
        "bilateral": None,
        "classes": None,
        "roots": _root_counts(analysis),
        "v": None,
        "precedence": None,
        "verdict": _verdict_payload(analysis.verdict),
    }
    if analysis.bilateral is not None:
        report["bilateral"] = {
            "positive": list(analysis.bilateral.positive),
            "negative": list(analysis.bilateral.negative),
            "dual_basis": analysis.bilateral.dual_basis,
        }
        report["classes"] = [list(c) for c in analysis.classes.classes]
        report["v"] = list(analysis.v)
        report["precedence"] = sorted([list(p) for p in analysis.precedence])
    if include_orbits and analysis.catalog is not None:
        report["orbits"] = {
            "dimension_semantics": "derived",
            "records": [
                {
                    "rays": list(rec.basic.rays),
                    "hat": list(rec.basic.hat),
                    "dimension": rec.dimension,
                    "t_orbit_cones": [c.ray_indices for c in rec.t_orbit_cones],
                }
                for rec in analysis.catalog
            ],
        }
    if check:
        try:
            cc = cross_check(fan, analysis.verdict)
            report["cross_check"] = {
                "recognizers": list(cc.recognizers),
                "predictions": list(cc.predictions),
                "verdict_finite": cc.verdict_finite,
                "agree": cc.agree,
                "weights": list(cc.weights) if cc.weights is not None else None,
                "negative_patterns": [list(p) for p in cc.negative_patterns]
                if cc.negative_patterns is not None
                else None,
            }
        except NotApplicable as exc:
            report["cross_check"] = {"applicable": False, "message": str(exc)}
        report["oracle"] = _oracle_check(analysis, seed)
    return report


def render_text(report: dict) -> str:
    lines = []
    fan = report["fan"]
    lines.append(
        f"fan: dim {fan['dim']}, {len(fan['rays'])} rays, "
        f"{len(fan['max_cones'])} maximal cones, {fan['num_cones']} cones, "
        f"{'complete' if fan['complete'] else 'not complete'}"
    )
    cg = report["class_group"]
    torsion = (
        " + " + " + ".join(f"Z/{t}" for t in cg["torsion_invariants"])
        if cg["torsion_invariants"]
        else ""
    )
    lines.append(f"class group: Z^{cg['free_rank']}{torsion}")
    if report["bilateral"] is None:
        lines.append("bilateral structure: none (not radiant)")
    else:
        b = report["bilateral"]
        lines.append(
            f"bilateral: positive rays {b['positive']}, negative rays {b['negative']}"
        )
        lines.append(
            "classes: "
            + "; ".join(
                f"ray {i} -> {tuple(c)}" for i, c in enumerate(report["classes"])
            )
        )
    roots = report["roots"]
    in_u = roots["in_unipotent_group"]
    lines.append(
        f"roots: {roots['total']} total ({roots['semisimple']} semisimple, "
        f"{roots['unipotent']} unipotent)"
        + (f", {in_u} in the unipotent subgroup" if in_u is not None else "")
    )
    if report["v"] is not None:
        lines.append(f"v: {tuple(report['v'])}")
        pairs = ", ".join(f"{a} before {b}" for a, b in report["precedence"])
        lines.append(f"precedence: {pairs if pairs else '(empty)'}")
    verdict = report["verdict"]
    if verdict["finite"]:
        lines.append(f"verdict: FINITE, {verdict['orbit_count']} orbits")
    else:
        lines.append(f"verdict: INFINITE ({verdict['reason']})")
        if verdict["witness_cone"] is not None:
            lines.append(
                f"  witness cone: rays {verdict['witness_cone']}, "
                f"irreducibles {[tuple(v) for v in verdict['witness_irreducibles']]}"
            )
    if "orbits" in report:
        lines.append("orbit catalog (dimension is derived as dim - |hat|):")
        for rec in report["orbits"]["records"]:
            cones = ", ".join(str(c) for c in rec["t_orbit_cones"])
            lines.append(
                f"  orbit dim {rec['dimension']}: rays {rec['rays']}, "
                f"hat {rec['hat']}, torus-orbit cones [{cones}]"
            )
    if "cross_check" in report:
        cc = report["cross_check"]
        if cc.get("applicable") is False:
            lines.append(f"cross-check: not applicable ({cc['message']})")
        else:
            status = "AGREE" if cc["agree"] else "DISAGREE"
            lines.append(
                f"cross-check: {status} (recognizers {cc['recognizers']}, "
                f"predictions {cc['predictions']})"
            )
    if "oracle" in report:
        o = report["oracle"]
        lines.append(
            f"oracle: seed {o['seed']}, {o['trials']} trials, {o['failures']} failures"
        )
    return "\n".join(lines) + "\n"


def _emit_error(exc: Exception) -> int:
    payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload))
    return 2


def cmd_analyze(args) -> int:
    if bool(args.path) == bool(args.family):
        return _emit_error(
            UsageError("provide exactly one of a fan file path or --family")
        )
    try:
        if args.family:
            fan = build(parse_family(args.family))
        else:
            dim, rays, max_cones = load_fan_file(args.path)
            fan = validate_fan(dim, rays, max_cones, require_complete=True)
    except (FanFileError, FanError, InvalidSpec, ValueError) as exc:
        return _emit_error(exc)
    try:
        analysis = analyze_fan(fan)
        report = build_report(
            analysis, include_orbits=args.orbits, check=args.check, seed=args.seed
        )
    except (InvariantViolation, TooLarge) as exc:
        return _emit_error(exc)
    if args.format == "json":
        print(report_json(report, analysis.root_slices if args.roots else None))
    else:
        sys.stdout.write(render_text(report))
    return 0


def cmd_build(args) -> int:
    try:
        fan = build(parse_family(args.family))
    except (InvalidSpec, FanError, ValueError) as exc:
        return _emit_error(exc)
    payload = fan_file_payload(fan)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        return _emit_error(FanFileError(str(exc)))
    print(f"wrote {args.output}")
    return 0


@cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `parse_args` makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="unifan",
        description=(
            "Decide whether a maximal unipotent subgroup of the automorphism "
            "group of a complete simplicial toric variety acts with finitely "
            "many orbits, and enumerate the orbits when it does."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a fan file or a named family")
    analyze.add_argument("path", nargs="?", help="JSON fan file")
    analyze.add_argument(
        "--family", help="family spec: wps:1,1,2 | hirzebruch:d | p1xp1 | pn:n"
    )
    analyze.add_argument("--format", choices=["text", "json"], default="text")
    analyze.add_argument(
        "--orbits", action="store_true", help="include the orbit catalog"
    )
    analyze.add_argument("--roots", action="store_true", help="include the root list")
    analyze.add_argument(
        "--check", action="store_true", help="run the classification cross-check"
    )
    analyze.add_argument(
        "--seed",
        type=int,
        default=0,
        help=(
            "seed for the property-oracle spot checks; a negative seed runs "
            "the trials of its absolute value"
        ),
    )
    analyze.set_defaults(func=cmd_analyze)

    builder = sub.add_parser("build", help="write the fan file of a named family")
    builder.add_argument("family", help="family spec, e.g. hirzebruch:2")
    builder.add_argument("-o", "--output", required=True, help="output path")
    builder.set_defaults(func=cmd_build)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


def console_entry() -> None:
    raise SystemExit(main())
