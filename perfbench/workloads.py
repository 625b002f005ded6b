"""The benchmark's three workloads and the checks on their outputs.

A workload turns a seed into the items of each pass.  An item is one
request a user would make: `certify` asks for the whole certified verdict
table, `census` for one class number, `query` for one CLI call.  Each item
has a `call` that runs the library and a `check` that lists every way the
result disagrees with what the construction tables fix.  Everything a check
compares against is computed when the workload is built, before a traced
run wraps the library, so checks add no spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from reflector import classify, cli, discforms, towers


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


class Workload:
    """Items for each pass; the seed fixes the inputs and their order."""

    def __init__(self, seed: int, make_pass: Callable[[random.Random], list[Item]]):
        self._rng = random.Random(seed)
        self._make_pass = make_pass

    def pass_items(self) -> list[Item]:
        return self._make_pass(self._rng)


def _table_rows() -> list[tuple[str, str, int, int, int]]:
    """Every construction-table row as (genus, model, c1, cp, k)."""
    rows = [(g, m, 1, 0, k) for g, m, k in classify.STRONGLY_2_REFLECTIVE]
    rows += [(g, m, 0, 1, k) for g, m, k in classify.STRONGLY_2P_REFLECTIVE]
    rows += [(g, m, 1, cp, k) for g, m, k, cp, _ in classify.MIXED_REFLECTIVE]
    return rows


# -- certify: the verdict table, the towers, and a few generic primes --

GENERIC_PRIMES = [
    p for p in range(13, 200) if discforms.is_prime(p) and p not in classify.STORED_CASES
]
PRIMES_PER_CLASS = 3


def certify(seed: int) -> Workload:
    rng = random.Random(seed)
    primes = []
    for residue in (1, 3):
        pool = [p for p in GENERIC_PRIMES if p % 4 == residue]
        primes += rng.sample(pool, PRIMES_PER_CLASS)
    primes.sort()
    expected_labels = classify.reflective_genera()

    def call():
        table = classify.verdict_table(verify=True)
        replay = towers.verify_all()
        return table, replay, {p: classify.classify(p) for p in primes}

    def check(result) -> list[str]:
        table, replay, generic = result
        bad = []
        if table["count"] != 55:
            bad.append(f"count {table['count']} != 55")
        if table["reflective"] != expected_labels:
            bad.append("reflective labels differ from reflective_genera()")
        for label in expected_labels:
            statuses = table["verification"].get(label)
            if not statuses:
                bad.append(f"{label}: no construction row verified")
                continue
            for row, status in statuses.items():
                if status not in ("checked", "tower-covered"):
                    bad.append(f"{label} {row}: {status}")
        if not replay["towers"] or not all(replay["towers"].values()):
            bad.append(f"tower replay failed: {replay['towers']}")
        if not replay["transfers_ok"] or not all(replay["transfers_ok"]):
            bad.append(f"transfer replay failed: {replay['transfers_ok']}")
        for p, records in generic.items():
            if not records or any(r.verdict != "NOT_REFLECTIVE" for r in records):
                bad.append(f"p={p}: not every case is NOT_REFLECTIVE")
        return bad

    label = "certify primes=" + ",".join(map(str, primes))
    return Workload(seed, lambda _rng: [Item(label, call, check)])


# -- census: class numbers of reduced copies of the rank-10 root datum --

# (rank, p, c1, cp, k, n_p) -> class number.  E6(3)+G2 has 391 isotropic
# lines, each fingerprinted at norm 6; the rank-10 datum E6(3)+2G2 has 1093
# and takes minutes per call, so it stays a test rather than a workload.
CENSUS_POOL = [
    ((8, 3, 1, 1, 18, 6), 1),
    ((6, 3, 1, 1, 24, 3), 0),
    ((6, 3, 1, 1, 24, 5), 1),
]


def census(seed: int) -> Workload:
    def item(args, expected) -> Item:
        def check(count) -> list[str]:
            return [] if count == expected else [f"class number {count} != {expected}"]

        return Item(f"class_number{args}", lambda: classify.class_number(*args), check)

    def make_pass(rng: random.Random) -> list[Item]:
        pool = list(CENSUS_POOL)
        rng.shuffle(pool)
        return [item(args, expected) for args, expected in pool]

    return Workload(seed, make_pass)


# -- query: single CLI requests over the construction-table rows --

QUERY_COMMANDS = ("lattice", "discform", "roots", "check", "solve", "classify", "eta")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    return code, out.getvalue()


def _parallel(a: tuple, b: tuple) -> bool:
    """Whether two integer vectors are proportional (every 2x2 minor vanishes)."""
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


def _query_request(command: str, row, context) -> Item:
    """One CLI request for a table row, and the check its JSON must pass."""
    label, model, c1, cp, k = row
    g = discforms.parse_genus(label)
    two_u = model.startswith("2U+")
    labels_at_p, cases_at_p, lifts = context
    p = str(g.p)
    argv = {
        "lattice": ["lattice", "--lattice", model, "--prime", p],
        "discform": ["discform", "--genus", label],
        "roots": ["roots", "--lattice", model, "--prime", p],
        "check": ["check", "--lattice", model, "--prime", p,
                  "--c1", str(c1), "--cp", str(cp), "--k", str(k)],
        "solve": ["solve", "--lattice", model, "--prime", p],
        "classify": ["classify", "--prime", p],
        "eta": ["eta"],
    }[command]
    expected_code = 0
    if command == "classify":
        expected_code = 2 if cases_at_p[g.p] > len(labels_at_p[g.p]) else 0

    def expect(payload) -> list[str]:
        if command == "lattice":
            want = {"genus": label, "signature": [g.pos, g.neg], "rank": g.pos + g.neg,
                    "level": g.p}
            bad = [f"{key} {payload.get(key)} != {val}" for key, val in want.items()
                   if payload.get(key) != val]
            if abs(payload.get("det", 0)) != g.p**g.n_p:
                bad.append(f"det {payload.get('det')} is not +-{g.p}^{g.n_p}")
            return bad
        if command == "discform":
            bad = []
            if payload["order"] != g.p**g.n_p:
                bad.append(f"order {payload['order']} != {g.p}^{g.n_p}")
            if payload["milgram_octant"] != (g.pos - g.neg) % 8:
                bad.append(f"octant {payload['milgram_octant']} != signature mod 8")
            return bad
        if command == "roots":
            comps = payload["components"]
            bad = []
            if sum(c["count_short"] for c in comps) != payload["count_norm2"]:
                bad.append("short component counts do not add up")
            if sum(c["count_long"] for c in comps) != payload["count_norm2p"]:
                bad.append("long component counts do not add up")
            if two_u:
                # component form of the multiplicity identity for the row
                const = Fraction(c1 * payload["count_norm2"] + cp * payload["count_norm2p"]
                                 + 2 * k, 24) - c1
                for c in comps:
                    if c1 * Fraction(c["alpha"]) + cp * Fraction(c["beta"]) != const:
                        bad.append(f"component {c['name']} misses C = {const}")
            return bad
        if command == "check":
            if (payload["c1"], payload["cp"], payload["k"]) != (c1, cp, k):
                return ["check echoed other multiplicities"]
            return [] if payload["passed"] is True else ["candidate check did not pass"]
        if command == "solve":
            status = payload["status"]
            if status not in ("ray", "underdetermined", "none"):
                return [f"unknown solve status {status}"]
            if not two_u:
                return []
            if status == "ray":
                ray = (payload["c1"], payload["cp"], payload["k"])
                return [] if _parallel(ray, (c1, cp, k)) else [f"ray {ray} misses the row"]
            if status == "underdetermined":
                k1, kp = (Fraction(x) for x in payload["k_coeffs"])
                return [] if k1 * c1 + kp * cp == k else ["weight polynomial misses the row"]
            return ["no multiplicities solve a certified row"]
        if command == "classify":
            reflective = {r["genus"] for r in payload if r["verdict"] == "REFLECTIVE"}
            bad = []
            if reflective != labels_at_p[g.p]:
                bad.append(f"reflective genera at p={g.p} differ from the tables")
            if len(payload) != cases_at_p[g.p]:
                bad.append(f"{len(payload)} records at p={g.p}, expected {cases_at_p[g.p]}")
            return bad
        # eta: the lifting weights are the II_{18,2}(2_II^{+n_p}) mixed rows
        got = {int(n): (v["k"], v["c2"]) for n, v in payload["lift_weights"].items()}
        bad = [] if got == lifts else [f"lift weights {got} != table {lifts}"]
        if not payload["f"].startswith("1*q^(-1) + 8 + 52*q^(1) + 256*q^(2) + "):
            bad.append("f is not q^-1 + 8 + 52q + 256q^2 + ...")
        return bad

    def check(result) -> list[str]:
        code, out = result
        if code != expected_code:
            return [f"exit code {code} != {expected_code}"]
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        try:
            return expect(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed JSON payload: {exc!r}"]

    return Item(f"{command} {label} {model}", lambda: _run_cli(argv), check)


def query_deck() -> list[Item]:
    """The fixed request mix: row i of the tables gets command i mod 7.

    `check` needs a 2U model, so on a U + U(p) row the next command is
    taken instead.  The deck is fixed, not drawn per seed: drawing with
    replacement made the per-run cost swing by a third between seeds,
    because a few E8 models take 40 times the median request.
    """
    rows = _table_rows()
    labels_at_p: dict[int, set[str]] = {}
    for label in classify.reflective_genera():
        labels_at_p.setdefault(discforms.parse_genus(label).p, set()).add(label)
    cases_at_p = {p: len(cases) for p, cases in classify.STORED_CASES.items()}
    lifts = {}
    for label, _, k, cp, _ in classify.MIXED_REFLECTIVE:
        g = discforms.parse_genus(label)
        if g.p == 2 and g.pos == 18:
            lifts[g.n_p] = (k, cp)
    context = (labels_at_p, cases_at_p, lifts)
    deck = []
    for i, row in enumerate(rows):
        j = i % len(QUERY_COMMANDS)
        if QUERY_COMMANDS[j] == "check" and not row[1].startswith("2U+"):
            j += 1
        deck.append(_query_request(QUERY_COMMANDS[j], row, context))
    return deck


def query(seed: int) -> Workload:
    deck = query_deck()

    def make_pass(rng: random.Random) -> list[Item]:
        items = list(deck)
        rng.shuffle(items)
        return items

    return Workload(seed, make_pass)


WORKLOADS = {"certify": certify, "census": census, "query": query}
