"""Quasi pull-back towers and hyperbolic-rescaling transfers.

A tower starts from a reflective form on a lattice U + U(p) + n*K0 and
repeatedly pulls back along the inclusion obtained by dropping one copy of
the definite summand K0; each drop raises the weight by
(c1 |R1(K0)| + cp |R2(K0)|) / 2, which is c1 |R1+(K0)| + cp |R2+(K0)| on
the positive roots.  A transfer replaces the rescaled hyperbolic plane U(p)
by U, multiplying the long-root multiplicity by p and the weight by
(p+1)/2.

Every model is derived from a block K0 and a count n by one rule,
`_expr`: "U+U(3)+2A2", and "U+U(3)+A2" at n = 1.  A tower is a record
(name, p, (c1, cp), K0, top) in `TOWERS`, whose levels are U + U(p) + n*K0
for n = top, ..., 1; a transfer is a record (p, K0, n) in `TRANSFERS`, from
U + U(p) + n*K0 to 2U + n*K0.  Every number is derived from the
construction tables of `classify`, by `replay_tower` and `transfer_target`;
the replays and `covered_rows`, which `classify.construction_coverage`
reads, share them.

Each replay is a plan and a judgment.  The plan holds what the tables
cannot change, and the catalog keeps it (`lattices.kept`) once per record,
so a user catalog has plans of its own:
  - for a tower, each level's expression and genus label, and K0's numbers
    of positive short and long roots at p;
  - for a transfer, its source and target expressions and genera, the
    source's sorted hyperbolic-plane scales and the target's definite part.
The judgment reads the tables afresh on every call of `covered_rows` and
`verify_all`, so a change to them shows in the next call:
  - a tower's base weight is that of the one table row with the base's genus
    and (c1, cp); each later level adds the pull-back weight of one K0;
  - each level must land on the table row of its genus with its (c1, cp, k),
    or, at (1, 1), split as that genus's strongly 2- and 2p-reflective
    weights;
  - a transfer starts at the one table row of its source's genus, and its
    2U + K target must be the table row of the target's genus and pass the
    candidate check on K; it covers its source row only when all of its
    replay passes.
Every call hands out new dicts and lists, never a plan's own.  Genera come
from `discforms.genus_symbol` on the lattices the catalog keeps for each
expression.
"""

from __future__ import annotations

from collections import defaultdict

from . import catalog as cat_mod
from . import classify, discforms, reflcheck, roots
from .lattices import kept

# (name, p, (c1, cp), block K0, top): levels U + U(p) + n*K0 for n = top, ..., 1
TOWERS = (
    ("p2-pullback", 2, (1, 1), "D4", 4),
    ("p3-pullback", 3, (1, 1), "A2", 6),
    ("p3-short-root-ladder", 3, (1, 0), "A2", 3),
    ("p5-pullback", 5, (1, 1), "T4", 2),
    ("p7-pullback", 7, (1, 1), "L7", 3),
    ("p11-pullback", 11, (1, 1), "L11", 2),
)

# (p, block K0, n): from U + U(p) + n*K0 to 2U + n*K0
TRANSFERS = (
    (3, "A2", 5), (3, "A2", 4), (3, "A2", 6), (5, "T4", 1), (5, "T4", 2), (7, "L7", 1),
    (7, "L7", 2), (7, "L7", 3), (11, "L11", 1), (11, "L11", 2), (23, "L23", 1),
)


def _expr(planes: str, block: str, n: int) -> str:
    """planes + n*block, as the tables write it: "U+U(3)+2A2", "U+U(3)+A2"."""
    return f"{planes}+{n if n > 1 else ''}{block}"


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


@kept
def _tower_plan(cat, p: int, block: str, top: int) -> tuple[tuple, int, int]:
    """((expr, genus label) for each level n = top, ..., 1, positive short roots
    of the block, positive long roots of the block)."""
    levels = []
    for n in range(top, 0, -1):
        expr = _expr(f"U+U({p})", block, n)
        levels.append((expr, discforms.genus_symbol(cat.parse(expr), p=p).label()))
    data = roots.root_data(cat.parse(block), p)
    return tuple(levels), data.positive_short, data.positive_long


def replay_tower(tower: tuple, catalog=None, table=None) -> list[dict]:
    """Derive every level of a tower from the tables and judge it.

    Each level reports its expression, its genus, the block it drops
    ("drop", None at the base), its weight, whether it lands on a table row
    ("row"), the (strongly 2, strongly 2p) weights it splits into ("split",
    (1, 1) only, else None), and "ok": it has a weight, and that weight lands
    or splits.  Every weight is None when the base has no single table row.
    `table` is `_table()`, read afresh when not given; the rest comes from
    the catalog's plan.
    """
    cat = catalog or cat_mod.default_catalog()
    table = _table() if table is None else table
    _, p, (c1, cp), block, top = tower
    plan, short, long = _tower_plan(cat, p, block, top)
    levels: list[dict] = []
    k = _only(_weights(table, plan[0][1], c1, cp))
    for i, (expr, genus) in enumerate(plan):
        if i and k is not None:
            k += c1 * short + cp * long
        row = k is not None and k in _weights(table, genus, c1, cp)
        split = None
        if k is not None and not row and (c1, cp) == (1, 1):
            pair = (_only(_weights(table, genus, 1, 0)), _only(_weights(table, genus, 0, 1)))
            if None not in pair and sum(pair) == k:
                split = pair
        levels.append({"expr": expr, "genus": genus, "drop": block if i else None, "weight": k,
                       "row": row, "split": split, "ok": row or split is not None})
    return levels


@kept
def _transfer_plan(cat, p: int, block: str, n: int) -> tuple:
    """(source expr, its genus, target expr, its genus, the source's sorted
    scales, the target's definite part) of the transfer from U + U(p) + n*block
    to 2U + n*block."""
    expr, to_expr = _expr(f"U+U({p})", block, n), _expr("2U", block, n)
    lat, scales, _ = cat.model_parts(expr)
    to_lat, _, definite = cat.model_parts(to_expr)
    return (expr, discforms.genus_symbol(lat, p=p), to_expr, discforms.genus_symbol(to_lat, p=p),
            tuple(sorted(scales)), definite)


def transfer_target(tr: tuple, catalog=None, table=None) -> dict:
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
    p = tr[0]
    expr, genus, to_expr, to_genus, scales, definite = _transfer_plan(cat, *tr)
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


def replay_transfer(tr: tuple, catalog=None, table=None) -> dict:
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
        "genus": g.label(),
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
    covers its source row when its whole replay passes (`_passes`).
    """
    table = _table()
    covered = set()
    for tower in TOWERS:
        c1, cp = tower[2]
        for level in replay_tower(tower, catalog, table)[1:]:
            if level["row"]:
                covered.add((level["genus"], c1, cp, level["weight"]))
            elif level["split"]:
                s2, s2p = level["split"]
                covered |= {(level["genus"], 1, 0, s2), (level["genus"], 0, 1, s2p)}
    for tr in TRANSFERS:
        rep = replay_transfer(tr, catalog, table)
        if _passes(rep):
            covered.add((rep["genus"], *rep["source"]))
    return covered


def _passes(report: dict) -> bool:
    """Whether every `*_ok` check of a transfer replay holds."""
    return all(v for k, v in report.items() if k.endswith("_ok"))


def verify_all(catalog=None) -> dict:
    """Replay every tower and transfer; True entries mean full agreement."""
    table = _table()
    towers_ok = {
        tower[0]: all(level["ok"] for level in replay_tower(tower, catalog, table))
        for tower in TOWERS
    }
    transfers_ok = [_passes(replay_transfer(tr, catalog, table)) for tr in TRANSFERS]
    return {"towers": towers_ok, "transfers_ok": transfers_ok}
