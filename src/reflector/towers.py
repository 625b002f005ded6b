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
construction tables of `classify`, by `replay_tower` for a tower and by
`replay_transfer`, one report per transfer, for a transfer.  `covered_rows`,
which `classify.construction_coverage` reads, and `verify_all` read one
replay of all of them (`_replays`), judged on one reading of the tables and
kept in the catalog's ledger for that reading (`classify.construction_ledger`).

Each replay is a plan and a judgment.  The plan holds what the tables
cannot change, and the catalog keeps it (`lattices.kept`) once per record,
so a user catalog has plans of its own:
  - for a tower, each level's expression and genus label, and K0's numbers
    of positive short and long roots at p;
  - for a transfer, its source and target expressions and genus labels,
    whether the source's planes are U + U(p) and the target's genus is the
    source's `GenusSymbol.transfer`, and the target's definite part K.
The judgment reads the tables afresh on every direct call of `replay_tower`
or `replay_transfer`.  The ledger is kept per reading of the tables,
`TOWERS` and `TRANSFERS`, so a change to any of them shows in the next call
of `covered_rows` or `verify_all`, and undoing it finds the earlier entry:
  - a tower's base weight is that of the one table row with the base's genus
    and (c1, cp); each later level adds the pull-back weight of one K0;
  - each level must land on the table row of its genus with its (c1, cp, k),
    or, at (1, 1), split as that genus's strongly 2- and 2p-reflective
    weights;
  - a transfer starts at the one table row of its source's genus, and its
    2U + K target must be the table row of the target's genus and pass the
    candidate check on K, which K keeps (`reflcheck.check_candidate`), so
    the check of that row in `classify.verify_construction` is the same
    computation; it covers its source row only when all of its replay passes.
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


def _table(rows=None) -> defaultdict[str, list[tuple[int, int, int]]]:
    """The (c1, cp, k) of the construction-table rows, by genus, in table order;
    `rows` is `classify.table_rows()`, read afresh when not given."""
    out = defaultdict(list)
    for genus, _model, c1, cp, k in classify.table_rows() if rows is None else rows:
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
    """(source expr, its genus label, target expr, its genus label, whether the
    source's planes are U + U(p), whether the target's genus is the source's
    `transfer`, the target's definite part) of the transfer from U + U(p) + n*block
    to 2U + n*block."""
    expr, to_expr = _expr(f"U+U({p})", block, n), _expr("2U", block, n)
    lat, scales, _ = cat.model_parts(expr)
    to_lat, _, definite = cat.model_parts(to_expr)
    genus, to_genus = discforms.genus_symbol(lat, p=p), discforms.genus_symbol(to_lat, p=p)
    return (expr, genus.label(), to_expr, to_genus.label(), sorted(scales) == [1, p],
            to_genus == genus.transfer(), definite)


def replay_transfer(tr: tuple, catalog=None, table=None) -> dict:
    """Derive one U(p) -> U transfer from the tables and judge it.

    The report gives the source and target expressions ("from", "to"), the
    source's genus label, the source (c1, cp, k), that of the one table row of
    the source's genus (None when there is not exactly one), and the target,
    2U + K with `transfer_multiplicity` and `transfer_weight` applied (None
    without a source).  Four checks: the source's planes are U + U(p)
    ("scales_ok"), the target's genus is the source's `transfer`
    ("relation_ok"), the target is a table row of that genus ("row_ok"), and it
    passes the candidate check on K ("target_check_ok"); "ok" when all four
    hold.  `table` is `_table()`, read afresh when not given; the rest comes
    from the catalog's plan.
    """
    cat = catalog or cat_mod.default_catalog()
    table = _table() if table is None else table
    p = tr[0]
    expr, genus, to_expr, to_genus, scales_ok, relation_ok, definite = _transfer_plan(cat, *tr)
    rows = table.get(genus, [])
    source = rows[0] if len(rows) == 1 else None
    target, row_ok, check_ok = None, False, False
    if source is not None:
        c1, cp, k = source
        target = (*transfer_multiplicity(c1, cp, p), transfer_weight(k, p))
        row_ok = target[2] in _weights(table, to_genus, *target[:2])
        check_ok = definite is not None and reflcheck.check_candidate(definite, p, *target).passed
    return {"p": p, "from": expr, "to": to_expr, "genus": genus, "source": source,
            "target": target, "scales_ok": scales_ok, "relation_ok": relation_ok,
            "row_ok": row_ok, "target_check_ok": check_ok,
            "ok": scales_ok and relation_ok and row_ok and check_ok}


def _replays(catalog, rows, tower_records, transfer_records) -> tuple[tuple, tuple]:
    """(((tower, its levels), ...) for the tower records, (report, ...) for the
    transfer records), all judged on the one reading `rows` of the tables."""
    table = _table(rows)
    return (tuple((tower, replay_tower(tower, catalog, table)) for tower in tower_records),
            tuple(replay_transfer(tr, catalog, table) for tr in transfer_records))


def _covered(tower_levels, transfers) -> set[tuple[str, int, int, int]]:
    """The rows (genus, c1, cp, k) that the steps and transfers of one `_replays` derive."""
    covered = {(rep["genus"], *rep["source"]) for rep in transfers if rep["ok"]}
    for (_, _, (c1, cp), _, _), levels in tower_levels:
        for level in levels[1:]:
            if level["row"]:
                covered.add((level["genus"], c1, cp, level["weight"]))
            elif level["split"]:
                s2, s2p = level["split"]
                covered |= {(level["genus"], 1, 0, s2), (level["genus"], 0, 1, s2p)}
    return covered


def covered_rows(catalog=None) -> set[tuple[str, int, int, int]]:
    """The table rows (genus, c1, cp, k) that a tower step or a transfer derives.

    A step covers the row it lands on, or the two rows it splits into; a
    base covers nothing, since its weight is read off its row.  A transfer
    covers its source row when its whole replay passes ("ok").  Read off the
    catalog's ledger for the current tables (`classify.construction_ledger`),
    as a new set.
    """
    return set(classify.construction_ledger(catalog).covered)


def verify_all(catalog=None) -> dict:
    """Every tower and transfer replayed; True entries mean full agreement.

    Read off the catalog's ledger for the current tables, as a new dict.
    """
    ledger = classify.construction_ledger(catalog)
    return {"towers": {tower[0]: all(level["ok"] for level in levels)
                       for tower, levels in ledger.towers},
            "transfers_ok": [rep["ok"] for rep in ledger.transfers]}
