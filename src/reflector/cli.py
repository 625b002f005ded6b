"""Command-line interface.

Every subcommand accepts --format json|text; JSON output is canonical
(sorted keys, no whitespace, fractions rendered as "num/den" strings).
Exit codes: 0 on success, 1 on usage or input errors, 2 when a check fails
or a classification contains non-reflective verdicts, 3 when an enumeration
budget is exhausted.  `main(argv)` may be called repeatedly in one
process; it builds its parser once, on first use, and reuses it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from math import prod

from . import catalog as cat_mod
from . import discforms, etaq, reflcheck, roots, towers
from .classify import CaseRecord, class_number_rootsystems, classify, count_classes, verdict_table


def _json_default(obj):
    """What json cannot encode itself: a Fraction as an int or "num/den", a
    `CaseRecord` as its fields, anything else as its str.  Named-tuple records
    never get here, as json writes them as arrays: commands pass their `_asdict()`."""
    if isinstance(obj, Fraction):
        return obj.numerator if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, CaseRecord):
        return vars(obj)
    return str(obj)


def emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_json_default))
    else:
        for line in text_lines:
            print(line)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1 with one line, not argparse's 2
        print(f"{self.prog}: error: {message} (see --help)", file=sys.stderr)
        raise SystemExit(1)


def prime(text: str) -> int:
    p = int(text)
    try:
        is_prime = discforms.is_prime(p)
    except ValueError as exc:  # too large to decide
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not is_prime:
        raise argparse.ArgumentTypeError(f"{p} is not a prime")
    return p


def precision(text: str) -> int:
    """Number of q-expansion terms, capped because the cost grows steeply with it."""
    terms = int(text)
    if not 1 <= terms <= 200:
        raise argparse.ArgumentTypeError(f"{terms} is not between 1 and 200")
    return terms


def _catalog(args):
    path = args.catalog or os.environ.get("REFLECTOR_CATALOG")
    if path:
        return cat_mod.Catalog.from_file(path)
    return cat_mod.default_catalog()


def _definite(args):
    """The hyperbolic-plane scales and the positive definite part of --lattice;
    ValueError when it has no definite part."""
    scales, definite = cat_mod.definite_part(args.lattice, _catalog(args))
    if definite is None:
        raise ValueError(f"lattice {args.lattice} has no definite part")
    return scales, definite


def _two_planes(args):
    """(m, the positive definite part K) of a --lattice U + U(m) + K; ValueError
    for any other hyperbolic planes."""
    scales, definite = _definite(args)
    m = cat_mod.second_plane(scales)
    if m is None:
        raise ValueError(f"{args.lattice} is not U + U(m) + K: {args.command} needs exactly "
                         "two hyperbolic planes, one of them U")
    return m, definite


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--catalog", help="path to a JSON gram-matrix catalog")


def cmd_lattice(args) -> int:
    cat = _catalog(args)
    lat = cat.parse(args.lattice)
    pos, neg = lat.signature()
    payload = {
        "expr": args.lattice,
        "rank": lat.rank,
        "signature": [pos, neg],
        "det": lat.det(),
        "level": lat.level(),
    }
    lines = [
        f"lattice {args.lattice}",
        f"  rank {lat.rank}, signature ({pos},{neg})",
        f"  det {lat.det()}, level {lat.level()}",
    ]
    if args.prime is not None:
        genus = discforms.genus_symbol(lat, p=args.prime)
        payload["genus"] = genus.label()
        lines.append(f"  genus {genus.label()}")
    emit(payload, args.format, lines)
    return 0


def cmd_discform(args) -> int:
    """The form of --genus, or of --lattice: where the lattice has a prime-level genus
    the octant and norm count are read off it, as for --genus; other forms are walked."""
    if args.genus:
        g = discforms.parse_genus(args.genus)
        if args.prime not in (None, g.p):
            raise ValueError(f"--prime {args.prime} is not the prime {g.p} of {args.genus}")
        p = g.p
        orders, level = [p] * g.n_p, p if g.n_p else 1
    elif args.lattice:
        lat = _catalog(args).parse(args.lattice)
        form = discforms.DiscriminantForm.from_lattice(lat)
        p, orders, level = args.prime, list(form.orders), form.level()
        try:
            g = discforms.genus_symbol(lat, p)
        except ValueError:  # not of level 1 or p, or |det| not a power of p
            g = None
        if g is None:
            octant = form.milgram_octant()
            count = form.count_norm(Fraction(2, p)) if p else None
    else:
        raise ValueError("discform needs --lattice or --genus")
    if g is not None:
        octant = discforms.milgram_formula(g.p, g.n_p, g.eps)
        count = discforms.norm_2p_count(g.p, g.n_p, g.eps) if p else None
    order = prod(orders)
    payload = {"orders": orders, "order": order, "level": level, "milgram_octant": octant}
    lines = [
        f"discriminant form of order {order}, level {level}",
        f"  cyclic orders {orders}",
        f"  Milgram octant {octant}",
    ]
    if p:
        payload["norm_2_over_p_count"] = count
        lines.append(f"  elements of norm 2/{p}: {count}")
    emit(payload, args.format, lines)
    return 0


def cmd_roots(args) -> int:
    _, definite = _definite(args)
    data = roots.root_data(definite, args.prime)
    n_short, n_long = 2 * data.positive_short, 2 * data.positive_long
    payload = {
        "count_norm2": n_short,
        "count_norm2p": n_long,
        "components": [c._asdict() for c in data.components],
    }
    lines = [f"{n_short} vectors of norm 2, {n_long} reflective vectors of norm 2*{args.prime}"]
    for c in data.components:
        lines.append(
            f"  {c.name}: rank {c.rank}, {c.count_short} short + {c.count_long} long"
        )
    emit(payload, args.format, lines)
    return 0


def cmd_check(args) -> int:
    """Exit 1 unless the model is 2U + K.  On U + U(m) + K, m > 1, the candidate
    check, which reads K alone, would miss the mirrors inside the rescaled plane."""
    scale, definite = _two_planes(args)
    if scale > 1:
        raise ValueError(
            f"{args.lattice} has the plane U({scale}), whose mirrors the candidate check "
            "does not model; `reflector tower` replays such rows"
        )
    report = reflcheck.check_candidate(definite, args.prime, args.c1, args.cp, args.k)
    payload = report._asdict()
    del payload["lattice"]
    lines = [
        f"candidate ({args.c1},{args.cp}) weight {args.k} at p={args.prime}: "
        + ("PASS" if report.passed else "FAIL")
    ]
    for name, value in report.checks.items():
        lines.append(f"  {name}: {value}")
    emit(payload, args.format, lines)
    return 0 if report.passed else 2


def cmd_solve(args) -> int:
    _, definite = _two_planes(args)
    res = reflcheck.solve_candidates(definite, args.prime)
    lines = [f"solve at p={args.prime}: {res.status}"]
    if res.status == "ray":
        lines.append(f"  multiplicities ({res.c1},{res.cp}), weight {res.k}, constant {res.c}")
    elif res.status == "underdetermined":
        k1, kp = res.k_coeffs
        lines.append(f"  weight k = {k1}*c1 + {kp}*c{args.prime} for independent multiplicities")
    else:
        lines.append(f"  {res.reason}")
    emit(res._asdict(), args.format, lines)
    return 0


def cmd_eta(args) -> int:
    series = etaq.f_series(terms=args.precision)
    scalar, sqrtp, transformed = etaq.s_transform(-8, -8, 2, terms=args.precision)
    payload = {
        "f": str(series),
        "f_terms": {str(e): c for e, c in series.terms()},
        "transform_scalar": scalar,
        "transform_sqrt_power": sqrtp,
        "f_transformed": str(transformed),
        "lift_weights": {
            str(n_p): dict(zip(("k", "c2"), etaq.lift_weight(n_p)))
            for n_p in (10, 8, 6, 4, 2)
        },
    }
    lines = [f"f = {series}", f"f|S = {scalar} * sqrt(2)^{sqrtp} * ({transformed})"]
    for n_p in (10, 8, 6, 4, 2):
        k, c2 = etaq.lift_weight(n_p)
        lines.append(f"  lift for 2_II^{{{n_p}}}: weight {k}, long multiplicity {c2}")
    emit(payload, args.format, lines)
    return 0


def cmd_tower(args) -> int:
    cat = _catalog(args)
    report = towers.verify_all(cat)
    ok = all(report["towers"].values()) and all(report["transfers_ok"])
    lines = []
    for name, good in report["towers"].items():
        lines.append(f"tower {name}: {'ok' if good else 'FAIL'}")
    lines.append(
        f"transfers: {sum(report['transfers_ok'])}/{len(report['transfers_ok'])} ok"
    )
    emit(report, args.format, lines)
    return 0 if ok else 2


def cmd_classify(args) -> int:
    cat = _catalog(args)
    if args.prime is not None:
        records = classify(args.prime, cat)
        lines = []
        for r in records:
            tail = f"  [{r.reason}]" if r.reason else ""
            lines.append(f"{r.genus}: {r.verdict}{tail}")
        emit(records, args.format, lines)
        return 2 if any(r.verdict == "NOT_REFLECTIVE" for r in records) else 0
    table = verdict_table(verify=args.verify, catalog=cat)
    for key in ("primes", "bound_mismatches"):  # canonical JSON sorts every key as text
        table[key] = {str(p): v for p, v in table[key].items()}
    lines = [f"reflective genera: {table['count']}"]
    for label in table["reflective"]:
        lines.append(f"  {label}")
    lines.append(
        "construction tables "
        + ("match" if table["matches_construction_tables"] else "DO NOT match")
    )
    failed = [f"row {key} of {label}: {status}" for label, rows in table["verification"].items()
              for key, status in rows.items() if status not in ("checked", "tower-covered")]
    lines += failed
    emit(table, args.format, lines)
    return 0 if table["matches_construction_tables"] and not failed else 2


def cmd_classnumber(args) -> int:
    cat = _catalog(args)
    data = class_number_rootsystems(args.rank, args.prime, args.c1, args.cp, args.k)
    count = count_classes(data, args.rank, args.prime, args.np, cat)
    payload = {"root_data": data, "class_number": count}
    lines = []
    for datum in data:
        lines.append(
            f"root datum {'+'.join(datum['components'])}: C = {datum['c']}, det {datum['det']}"
        )
    lines.append(f"class number {count}")
    emit(payload, args.format, lines)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reflector", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lattice", help="rank, determinant, level, genus of a lattice")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--prime", type=prime)
    _add_common(sp)
    sp.set_defaults(func=cmd_lattice)

    sp = sub.add_parser("discform", help="discriminant form invariants")
    sp.add_argument("--lattice")
    sp.add_argument("--genus")
    sp.add_argument("--prime", type=prime)
    _add_common(sp)
    sp.set_defaults(func=cmd_discform)

    sp = sub.add_parser("roots", help="reflective vectors and their components")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--prime", type=prime, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("check", help="verify one multiplicity/weight candidate")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--prime", type=prime, required=True)
    sp.add_argument("--c1", type=int, required=True)
    sp.add_argument("--cp", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("solve", help="solve the multiplicity equations")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--prime", type=prime, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("eta", help="eta-quotient input form and lifting weights")
    sp.add_argument("--precision", type=precision, default=12)
    _add_common(sp)
    sp.set_defaults(func=cmd_eta)

    sp = sub.add_parser("tower", help="replay the pull-back towers and transfers")
    _add_common(sp)
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("classify", help="run the classification")
    one = sp.add_mutually_exclusive_group()  # --verify re-checks the table of all primes
    one.add_argument("--prime", type=prime)
    one.add_argument("--verify", action="store_true", help="re-check every construction row")
    _add_common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("classnumber", help="count classes carrying a root datum")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--prime", type=prime, required=True)
    sp.add_argument("--c1", type=int, required=True)
    sp.add_argument("--cp", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--np", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_classnumber)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except discforms.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
