"""Quasi pull-back towers and hyperbolic-rescaling transfers.

A tower starts from a reflective form of singular weight on a lattice
U + U(p) + n*K0 and repeatedly pulls back along the inclusion obtained by
dropping one copy of the definite summand K0; each drop raises the weight
by (c1 |R1(K0)| + cp |R2(K0)|) / 2.  A transfer replaces the rescaled
hyperbolic plane U(p) by U, multiplying the long-root multiplicity by p and
the weight by (p+1)/2.  The stored ladder data (weights, genera, which
levels coincide with classification rows, which split as a product of the
two pure forms) is replayed and recomputed here from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import catalog as cat_mod
from . import discforms, reflcheck, roots
from .lattices import Lattice


@dataclass(frozen=True)
class TowerStep:
    expr: str
    drop: str
    weight: int
    genus: str
    catalogued: bool
    decomposes_into: tuple[int, int] | None


@dataclass(frozen=True)
class Tower:
    name: str
    p: int
    c1: int
    cp: int
    base_expr: str
    base_weight: int
    base_genus: str
    base_catalogued: bool
    steps: tuple[TowerStep, ...]


@dataclass(frozen=True)
class Transfer:
    p: int
    from_expr: str
    from_c1: int
    from_cp: int
    from_k: int
    from_genus: str
    to_expr: str
    to_c1: int
    to_cp: int
    to_k: int
    to_genus: str


def _raw_data() -> dict:
    path = resources.files(__package__) / "data" / "towers.json"
    return json.loads(path.read_text())


def _load(cls, obj: dict):
    """A dataclass from its JSON object.

    Nested objects are flattened into prefixed fields ("base": {"expr": ...}
    gives base_expr) and lists become tuples; the one list of objects,
    Tower.steps, becomes a tuple of TowerStep.
    """
    flat = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            flat.update((f"{key}_{k}", v) for k, v in value.items())
        else:
            flat[key] = value
    for key, value in flat.items():
        if isinstance(value, list):
            flat[key] = tuple(_load(TowerStep, v) if isinstance(v, dict) else v for v in value)
    return cls(**flat)


def load_towers() -> list[Tower]:
    return [_load(Tower, t) for t in _raw_data()["towers"]]


def load_transfers() -> list[Transfer]:
    return [_load(Transfer, t) for t in _raw_data()["transfers"]]


def pullback_weight(k: int, c1: int, cp: int, dropped: Lattice, p: int) -> int:
    """Weight after pulling back along the sublattice that omits `dropped`.

    The jump (c1 |R1| + cp |R2|) / 2 is c1 |R1+| + cp |R2+| on the positive
    roots.
    """
    r1, r2 = roots.positive_roots(dropped, p)
    return k + c1 * len(r1) + cp * len(r2)


def transfer_multiplicity(c1: int, cp: int, p: int) -> tuple[int, int]:
    return c1, p * cp


def transfer_weight(k: int, p: int) -> int:
    out = Fraction(k * (p + 1), 2)
    if out.denominator != 1:
        raise ValueError("transfer weight is not integral")
    return int(out)


def _term_multiset(expr: str, cat) -> dict:
    counts: dict[tuple, int] = {}
    for count, name, dual, scale in cat.parse_terms(expr):
        key = (name, dual, scale)
        counts[key] = counts.get(key, 0) + count
    return counts


def replay_tower(tower: Tower, catalog=None) -> list[dict]:
    """Recompute every level of a tower and compare with the stored data.

    Each report entry records whether the stored weight equals the
    recomputed pull-back weight, whether the stored genus matches the genus
    symbol of the parsed lattice, whether each expression drops exactly one
    stated summand from its predecessor, and whether split levels sum
    correctly.  Any False marks stored data the mathematics contradicts.
    """
    cat = catalog or cat_mod.default_catalog()
    reports = []
    base_lat = cat.parse(tower.base_expr)
    base_genus = discforms.genus_symbol(base_lat, p=tower.p)
    reports.append(
        {
            "expr": tower.base_expr,
            "weight": tower.base_weight,
            "weight_ok": True,
            "genus_ok": base_genus == discforms.parse_genus(tower.base_genus),
            "terms_ok": True,
            "split_ok": True,
        }
    )
    prev_expr = tower.base_expr
    prev_weight = tower.base_weight
    for step in tower.steps:
        dropped = cat.parse(step.drop)
        expected = pullback_weight(prev_weight, tower.c1, tower.cp, dropped, tower.p)
        lat = cat.parse(step.expr)
        genus_ok = discforms.genus_symbol(lat, p=tower.p) == discforms.parse_genus(step.genus)
        prev_terms = _term_multiset(prev_expr, cat)
        cur_terms = _term_multiset(step.expr, cat)
        diff = {
            key: prev_terms.get(key, 0) - cur_terms.get(key, 0)
            for key in set(prev_terms) | set(cur_terms)
        }
        drop_key = next(iter(_term_multiset(step.drop, cat)))
        terms_ok = all(v == 0 for k, v in diff.items() if k != drop_key) and diff.get(drop_key) == 1
        split_ok = True
        if step.decomposes_into is not None:
            split_ok = sum(step.decomposes_into) == step.weight
        reports.append(
            {
                "expr": step.expr,
                "weight": step.weight,
                "weight_ok": expected == step.weight,
                "genus_ok": genus_ok,
                "terms_ok": terms_ok,
                "split_ok": split_ok,
            }
        )
        prev_expr = step.expr
        prev_weight = step.weight
    return reports


def replay_transfer(tr: Transfer, catalog=None) -> dict:
    """Check one U(p) -> U transfer: scalings, genera, and the target model.

    The target is a 2U + K model, so its multiplicities and weight are also
    pushed through the full candidate check on K.
    """
    cat = catalog or cat_mod.default_catalog()
    mult_ok = transfer_multiplicity(tr.from_c1, tr.from_cp, tr.p) == (tr.to_c1, tr.to_cp)
    weight_ok = transfer_weight(tr.from_k, tr.p) == tr.to_k

    from_lat, from_scales, from_def = cat_mod.model_parts(tr.from_expr, cat)
    to_lat, to_scales, to_def = cat_mod.model_parts(tr.to_expr, cat)
    g_from = discforms.genus_symbol(from_lat, p=tr.p)
    g_to = discforms.genus_symbol(to_lat, p=tr.p)
    genus_ok = g_from == discforms.parse_genus(tr.from_genus) and g_to == discforms.parse_genus(
        tr.to_genus
    )
    relation_ok = (
        g_to.n_p == g_from.n_p - 2
        and g_to.eps == g_from.eps * discforms.eps_u_p(tr.p)
        and (g_to.pos, g_to.neg) == (g_from.pos, g_from.neg)
    )

    parts_ok = (
        sorted(from_scales) == sorted([1, tr.p])
        and sorted(to_scales) == [1, 1]
        and from_def is not None
        and to_def is not None
        and from_def.gram == to_def.gram
    )

    check = reflcheck.check_candidate(to_def, tr.p, tr.to_c1, tr.to_cp, tr.to_k)
    return {
        "p": tr.p,
        "from": tr.from_expr,
        "to": tr.to_expr,
        "multiplicity_ok": mult_ok,
        "weight_ok": weight_ok,
        "genus_ok": genus_ok,
        "relation_ok": relation_ok,
        "parts_ok": parts_ok,
        "target_check_ok": check.passed,
    }


def verify_all(catalog=None) -> dict:
    """Replay every tower and transfer; True entries mean full agreement."""
    cat = catalog or cat_mod.default_catalog()
    towers_ok = {}
    for tower in load_towers():
        reports = replay_tower(tower, cat)
        towers_ok[tower.name] = all(
            r["weight_ok"] and r["genus_ok"] and r["terms_ok"] and r["split_ok"] for r in reports
        )
    transfers_ok = []
    for tr in load_transfers():
        rep = replay_transfer(tr, cat)
        transfers_ok.append(
            all(v for k, v in rep.items() if k.endswith("_ok"))
        )
    return {"towers": towers_ok, "transfers_ok": transfers_ok}
