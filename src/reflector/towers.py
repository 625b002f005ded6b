"""Quasi pull-back towers and hyperbolic-rescaling transfers.

A tower starts from a reflective form on a lattice U + U(p) + n*K0 and
repeatedly pulls back along the inclusion obtained by dropping one copy of
the definite summand K0; each drop raises the weight by
(c1 |R1(K0)| + cp |R2(K0)|) / 2, which is c1 |R1+(K0)| + cp |R2+(K0)| on
the positive roots.  A transfer replaces the rescaled hyperbolic plane U(p)
by U, multiplying the long-root multiplicity by p and the weight by
(p+1)/2.

data/towers.json stores only expressions: each tower's p, (c1, cp) and
levels in order, and each transfer's p and source U + U(p) + K.  Every
number is derived from the construction tables of `classify`, by
`replay_tower` and `transfer_target`; the replays and `covered_rows`, which
`classify.construction_coverage` reads, share them.  The file is read and
parsed once per process, and `load` hands each caller its own copy, so no
caller's change reaches the replays.

Each replay is a plan and a judgment.  The plan holds what the tables
cannot change, and the catalog keeps it (`lattices.kept`) once per (p,
expressions), so a user catalog has plans of its own:
  - for each level of a tower, its expression, its genus label, and the
    one summand it drops from its predecessor with that summand's numbers
    of positive short and long roots (None at the base, and when the level
    differs from its predecessor by more than one dropped summand);
  - for each transfer, the source's genus, its 2U + K target and the
    target's genus, the sorted hyperbolic-plane scales and the definite
    part K.
The judgment reads the tables afresh on every call of `covered_rows` and
`verify_all`, so a change to them shows in the next call:
  - a tower's base weight is that of the one table row with the base's genus
    and (c1, cp); each later weight is the pull-back weight of the one
    summand a level drops from its predecessor;
  - each level must land on the table row of its genus with its (c1, cp, k),
    or, at (1, 1), split as that genus's strongly 2- and 2p-reflective
    weights;
  - a transfer starts at the one table row of its source's genus, and its
    2U + K target must be the table row of the target's genus.
Every call hands out new dicts and lists, never a plan's own.  Genera come
from `discforms.genus_symbol` on the lattices the catalog keeps for each
expression.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from copy import deepcopy
from functools import cache
from importlib import resources

from . import catalog as cat_mod
from . import classify, discforms, reflcheck, roots
from .lattices import Lattice, kept


@cache
def _stored() -> dict:
    """data/towers.json, read and parsed once per process; never handed out."""
    return json.loads((resources.files(__package__) / "data" / "towers.json").read_text())


def load() -> dict:
    """data/towers.json: "towers", each {"name", "p", "c1", "cp", "exprs"} with its
    base expression first, and "transfers", each {"p", "from"} with a source
    model U + U(p) + K.  Each call hands out a new copy of the one parse."""
    return deepcopy(_stored())


def transfer_multiplicity(c1: int, cp: int, p: int) -> tuple[int, int]:
    return c1, p * cp


def transfer_weight(k: int, p: int) -> int:
    if k * (p + 1) % 2:
        raise ValueError("transfer weight is not integral")
    return k * (p + 1) // 2


def _table() -> defaultdict[str, list[tuple[int, int, int]]]:
    """The (c1, cp, k) of the construction-table rows, by genus, in table order."""
    out = defaultdict(list)
    for genus, _model, c1, cp, k in classify.table_rows():
        out[genus].append((c1, cp, k))
    return out


def _weights(table, genus: str, c1: int, cp: int) -> list[int]:
    """The weights k of the table rows of this genus with multiplicities (c1, cp)."""
    return [k for a, b, k in table.get(genus, ()) if (a, b) == (c1, cp)]


def _only(ks: list[int]) -> int | None:
    return ks[0] if len(ks) == 1 else None


def _dropped(prev: Lattice, cur: Lattice) -> Lattice | None:
    """The one part (a catalog term's lattice) of prev that cur lacks; None unless
    that is their only difference."""
    parts_prev, parts_cur = Counter(prev.parts or (prev,)), Counter(cur.parts or (cur,))
    gone = parts_prev - parts_cur
    if parts_cur - parts_prev or sum(gone.values()) != 1:
        return None
    return next(iter(gone))


@kept
def _tower_plan(cat, p: int, exprs: tuple[str, ...]) -> tuple[tuple, ...]:
    """(expr, genus label, drop) for each level of a tower: drop is (name,
    positive short roots, positive long roots) of the one summand the level
    drops from its predecessor, None at the base and when there is no such
    summand."""
    plan, prev = [], None
    for expr in exprs:
        lat = cat.parse(expr)
        genus = discforms.genus_symbol(lat, p=p).label()
        drop = None if prev is None else _dropped(prev, lat)
        if drop is not None:
            data = roots.root_data(drop, p)
            drop = (drop.name, data.positive_short, data.positive_long)
        plan.append((expr, genus, drop))
        prev = lat
    return tuple(plan)


def replay_tower(tower: dict, catalog=None, table=None) -> list[dict]:
    """Derive every level of a tower from the tables and judge it.

    Each level reports its expression, its genus, the summand it drops
    ("drop", None at the base), its weight, whether it lands on a table row
    ("row"), the (strongly 2, strongly 2p) weights it splits into ("split",
    (1, 1) only, else None), and "ok": it has a weight, and that weight lands
    or splits.  The weight is None when the base has no single table row,
    when a level differs from its predecessor by more than one dropped
    summand, and at every level after either.  `table` is `_table()`, read
    afresh when not given; the rest comes from the catalog's plan.
    """
    cat = catalog or cat_mod.default_catalog()
    table = _table() if table is None else table
    p, c1, cp, exprs = tower["p"], tower["c1"], tower["cp"], tuple(tower["exprs"])
    plan = _tower_plan(cat, p, exprs)
    levels: list[dict] = []
    k = None
    for i, (expr, genus, drop) in enumerate(plan):
        if i == 0:
            k = _only(_weights(table, genus, c1, cp))
        elif k is not None:
            k = None if drop is None else k + c1 * drop[1] + cp * drop[2]
        row = k is not None and k in _weights(table, genus, c1, cp)
        split = None
        if k is not None and not row and (c1, cp) == (1, 1):
            pair = (_only(_weights(table, genus, 1, 0)), _only(_weights(table, genus, 0, 1)))
            if None not in pair and sum(pair) == k:
                split = pair
        levels.append(
            {
                "expr": expr,
                "genus": genus,
                "drop": drop[0] if drop else None,
                "weight": k,
                "row": row,
                "split": split,
                "ok": row or split is not None,
            }
        )
    return levels


@kept
def _transfer_plan(cat, p: int, expr: str) -> tuple:
    """(genus, to_expr, to_genus, sorted scales, definite part) of the transfer
    from U + U(p) + K to 2U + K."""
    lat, scales, _ = cat.model_parts(expr)
    genus = discforms.genus_symbol(lat, p=p)
    rest = [t for t in expr.replace(" ", "").split("+") if t not in ("U", f"U({p})")]
    to_expr = "+".join(["2U"] + rest)
    to_lat, _, definite = cat.model_parts(to_expr)
    return genus, to_expr, discforms.genus_symbol(to_lat, p=p), tuple(sorted(scales)), definite


def transfer_target(tr: dict, catalog=None, table=None) -> dict:
    """Derive both sides of one U(p) -> U transfer from the tables.

    The source (c1, cp, k) is that of the one table row of the source's
    genus ("source", None when there is not exactly one); the target is
    2U + K with `transfer_multiplicity` and `transfer_weight` applied, and
    "row" says whether it is a table row.  "scales" are the source's
    hyperbolic-plane scales, and "definite" is K.  `table` is `_table()`,
    read afresh when not given; the rest comes from the catalog's plan.
    """
    cat = catalog or cat_mod.default_catalog()
    table = _table() if table is None else table
    p, expr = tr["p"], tr["from"]
    genus, to_expr, to_genus, scales, definite = _transfer_plan(cat, p, expr)
    rows = table.get(genus.label(), [])
    source = rows[0] if len(rows) == 1 else None
    target = None
    if source is not None:
        c1, cp, k = source
        target = (*transfer_multiplicity(c1, cp, p), transfer_weight(k, p))
    return {
        "p": p,
        "from": expr,
        "to": to_expr,
        "genus": genus,
        "to_genus": to_genus,
        "scales": list(scales),
        "definite": definite,
        "source": source,
        "target": target,
        "row": target is not None and target[2] in _weights(table, to_genus.label(), *target[:2]),
    }


def replay_transfer(tr: dict, catalog=None, table=None) -> dict:
    """Check one U(p) -> U transfer: the source's planes, the genera, the target row.

    The target is a 2U + K model, so its multiplicities and weight are also
    pushed through the full candidate check on K.
    """
    t = transfer_target(tr, catalog, table)
    g, g_to, p = t["genus"], t["to_genus"], t["p"]
    check_ok = False
    if t["target"] is not None and t["definite"] is not None:
        check_ok = reflcheck.check_candidate(t["definite"], p, *t["target"]).passed
    return {
        "p": p,
        "from": t["from"],
        "to": t["to"],
        "source": t["source"],
        "target": t["target"],
        "scales_ok": t["scales"] == sorted([1, p]),
        "relation_ok": g_to == g.transfer(),
        "row_ok": t["row"],
        "target_check_ok": check_ok,
    }


def covered_rows(catalog=None) -> set[tuple[str, int, int, int]]:
    """The table rows (genus, c1, cp, k) that a tower step or a transfer derives.

    A step covers the row it lands on, or the two rows it splits into; a
    base covers nothing, since its weight is read off its row.  A transfer
    covers its source row when the target it computes is a table row.
    """
    data, table = _stored(), _table()
    covered = set()
    for tower in data["towers"]:
        c1, cp = tower["c1"], tower["cp"]
        for level in replay_tower(tower, catalog, table)[1:]:
            if level["row"]:
                covered.add((level["genus"], c1, cp, level["weight"]))
            elif level["split"]:
                s2, s2p = level["split"]
                covered |= {(level["genus"], 1, 0, s2), (level["genus"], 0, 1, s2p)}
    for tr in data["transfers"]:
        t = transfer_target(tr, catalog, table)
        if t["row"]:
            covered.add((t["genus"].label(), *t["source"]))
    return covered


def verify_all(catalog=None) -> dict:
    """Replay every tower and transfer; True entries mean full agreement."""
    data, table = _stored(), _table()
    towers_ok = {
        tower["name"]: all(level["ok"] for level in replay_tower(tower, catalog, table))
        for tower in data["towers"]
    }
    transfers_ok = []
    for tr in data["transfers"]:
        rep = replay_transfer(tr, catalog, table)
        transfers_ok.append(all(v for k, v in rep.items() if k.endswith("_ok")))
    return {"towers": towers_ok, "transfers_ok": transfers_ok}
