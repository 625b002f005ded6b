"""Pull-back towers and rescaled-plane transfers, derived from the construction tables."""
from __future__ import annotations

import pytest

from helpers import lattice_builds
from reflector import classify, etaq
from reflector.catalog import Catalog, default_catalog
from reflector.classify import construction_coverage, verdict_table, verify_construction
from reflector.towers import (
    TOWERS,
    TRANSFERS,
    covered_rows,
    replay_tower,
    replay_transfer,
    transfer_multiplicity,
    transfer_weight,
    verify_all,
)

BY_NAME = {tower[0]: tower for tower in TOWERS}


def _weights(name: str) -> list[int | None]:
    return [level["weight"] for level in replay_tower(BY_NAME[name])]


def _replace_row(monkeypatch, table: str, genus: str, k: int) -> None:
    """Give the one row of `table` with this genus the weight k."""
    rows = getattr(classify, table)
    (i,) = [i for i, row in enumerate(rows) if row[0] == genus]
    changed = rows[:i] + [(*rows[i][:2], k, *rows[i][3:])] + rows[i + 1 :]
    monkeypatch.setattr(classify, table, changed)


def test_every_stored_tower_and_transfer_replays():
    result = verify_all()
    assert all(result["towers"].values()), result["towers"]
    assert result["transfers_ok"] == [True] * 11


def test_tower_names_cover_all_primes_with_towers():
    assert set(BY_NAME) == {
        "p2-pullback",
        "p3-pullback",
        "p3-short-root-ladder",
        "p5-pullback",
        "p7-pullback",
        "p11-pullback",
    }


def test_short_root_ladder_weights():
    """Dropping one short block at a time walks the weights 12, 15, 18."""
    assert _weights("p3-short-root-ladder") == [12, 15, 18]


def test_pullback_weight_reproduces_stored_steps():
    """The base weight from its table row, then one pull-back weight per dropped block."""
    assert _weights("p2-pullback") == [8, 32, 56, 80]
    assert _weights("p3-pullback") == [6, 12, 18, 24, 30, 36]
    assert _weights("p5-pullback") == [4, 10]
    assert _weights("p7-pullback") == [3, 5, 7]
    assert _weights("p11-pullback") == [2, 4]


def test_replay_reports_give_weights_per_step():
    levels = replay_tower(BY_NAME["p3-pullback"])
    assert all(level["ok"] and level["weight"] for level in levels)


def test_levels_and_transfer_models_are_derived_as_written_before():
    """Each level is U + U(p) + n*K0 and each transfer goes from U + U(p) + n*K0 to
    2U + n*K0, written as the construction tables write them."""
    assert {name: [level["expr"] for level in replay_tower(tower)]
            for name, tower in BY_NAME.items()} == {
        "p2-pullback": ["U+U(2)+4D4", "U+U(2)+3D4", "U+U(2)+2D4", "U+U(2)+D4"],
        "p3-pullback": ["U+U(3)+6A2", "U+U(3)+5A2", "U+U(3)+4A2", "U+U(3)+3A2",
                        "U+U(3)+2A2", "U+U(3)+A2"],
        "p3-short-root-ladder": ["U+U(3)+3A2", "U+U(3)+2A2", "U+U(3)+A2"],
        "p5-pullback": ["U+U(5)+2T4", "U+U(5)+T4"],
        "p7-pullback": ["U+U(7)+3L7", "U+U(7)+2L7", "U+U(7)+L7"],
        "p11-pullback": ["U+U(11)+2L11", "U+U(11)+L11"],
    }
    assert [(t["from"], t["to"]) for t in map(replay_transfer, TRANSFERS)] == [
        ("U+U(3)+5A2", "2U+5A2"), ("U+U(3)+4A2", "2U+4A2"), ("U+U(3)+6A2", "2U+6A2"),
        ("U+U(5)+T4", "2U+T4"), ("U+U(5)+2T4", "2U+2T4"),
        ("U+U(7)+L7", "2U+L7"), ("U+U(7)+2L7", "2U+2L7"), ("U+U(7)+3L7", "2U+3L7"),
        ("U+U(11)+L11", "2U+L11"), ("U+U(11)+2L11", "2U+2L11"),
        ("U+U(23)+L23", "2U+L23"),
    ]


def test_uncatalogued_levels_split_into_the_pure_forms():
    """A (1, 1) level off the mixed table is the product of the genus's two pure forms."""
    splits = {
        (name, level["expr"]): level["split"]
        for name, tower in BY_NAME.items()
        for level in replay_tower(tower)
        if level["split"]
    }
    assert splits == {
        ("p2-pullback", "U+U(2)+2D4"): (28, 28),
        ("p2-pullback", "U+U(2)+D4"): (40, 40),
        ("p3-pullback", "U+U(3)+3A2"): (12, 12),
        ("p3-pullback", "U+U(3)+2A2"): (15, 15),
        ("p3-pullback", "U+U(3)+A2"): (18, 18),
    }


def test_each_step_drops_one_summand_and_lands():
    blocks = {"p2-pullback": "D4", "p3-pullback": "A2", "p3-short-root-ladder": "A2",
              "p5-pullback": "T4", "p7-pullback": "L7", "p11-pullback": "L11"}
    for name, tower in BY_NAME.items():
        base, *steps = replay_tower(tower)
        assert base["drop"] is None and base["row"]
        for level in steps:
            assert level["drop"] == blocks[name]
            assert level["ok"] and (level["row"] or level["split"]), (name, level)


def test_even_tower_base_ties_to_lift_weight():
    assert _weights("p2-pullback")[0] == etaq.lift_weight(10)[0] == 8


def test_transfer_formulas_match_stored_rows():
    """Each target is 2U + K with (c1, p cp, (p + 1) k / 2) from its source row."""
    for tr in TRANSFERS:
        rep = replay_transfer(tr)
        p, (c1, cp, k) = tr[0], rep["source"]
        assert rep["to"] == rep["from"].replace(f"U+U({p})+", "2U+")
        assert rep["target"] == (*transfer_multiplicity(c1, cp, p), transfer_weight(k, p))
        assert rep["target"][:2] == (1, p)


def test_a_base_covers_nothing_but_a_transfer_covers_its_source():
    """U+U(11)+2L11 is only a tower base; its row is covered by its transfer to 2U+2L11."""
    covered = covered_rows()
    assert ("II_{6,2}(11^{-4})", 1, 1, 2) in covered
    assert ("II_{4,2}(23^{-3})", 1, 1, 1) in covered
    assert ("II_{18,2}(2_II^{+10})", 1, 1, 8) not in covered


def test_coverage_is_derived_with_the_given_catalog():
    """With T4 replaced by A4v(5) the p5 tower fails, and the U+U(5)+T4 row is not covered.

    The default catalog runs warm first; then user catalogs are built and
    discarded in turn, A4v(5) and T4's own Gram alternating, and then the
    default catalog runs again: each run reads its own lattices, whichever
    catalog ran before it, even one that a discarded catalog's memory now holds.
    """
    label = "II_{6,2}(5^{-4})"  # its one row is U+U(5)+T4, at k = 10
    verify_all(), covered_rows(), verdict_table(verify=True)
    default = verify_all(), covered_rows(), construction_coverage()[label]
    assert default[0]["towers"]["p5-pullback"] is True
    assert verify_construction(label, default[2]) == {"mixed[0]": "tower-covered"}
    t4 = default_catalog().build("T4")
    a4v5 = default_catalog().build("A4").dual_rescaled(5)
    extras = [({"T4": [list(row) for row in lat.gram]}, lat is t4) for lat in [a4v5, t4] * 4]
    for extra, covered in extras:
        cat = Catalog(extra)
        assert verify_all(cat)["towers"]["p5-pullback"] is covered
        assert ((label, 1, 1, 10) in covered_rows(cat)) is covered
        assert verify_construction(label, construction_coverage(cat)[label]) == {
            "mixed[0]": "tower-covered" if covered else "uncovered"
        }
        status = verdict_table(verify=True, catalog=cat)["verification"][label]
        assert ("tower-covered" in status.values()) is covered
        del cat  # its memory is free for the next catalog
    assert (verify_all(), covered_rows(), construction_coverage()[label]) == default


# -- each check can fail: mutate one table row or one tower --


def test_a_wrong_mixed_row_fails_its_tower(monkeypatch):
    _replace_row(monkeypatch, "MIXED_REFLECTIVE", "II_{14,2}(2_II^{-8})", 33)
    result = verify_all()
    assert result["towers"]["p2-pullback"] is False
    assert [name for name, ok in result["towers"].items() if not ok] == ["p2-pullback"]


def test_a_wrong_strongly_2_row_fails_the_ladder_and_is_uncovered(monkeypatch):
    _replace_row(monkeypatch, "STRONGLY_2_REFLECTIVE", "II_{6,2}(3^{-4})", 16)
    result = verify_all()
    assert result["towers"]["p3-short-root-ladder"] is False
    assert result["towers"]["p3-pullback"] is False
    # the p3 step U+U(3)+2A2 at weight 30 no longer splits as 16 + 15, so
    # neither pure-form row of the genus is covered
    label = "II_{6,2}(3^{-4})"
    status = verify_construction(label, construction_coverage()[label])
    assert status == {"strongly_2": "uncovered", "strongly_2p": "uncovered"}


def test_a_wrong_transfer_target_row_fails_that_transfer(monkeypatch):
    _replace_row(monkeypatch, "MIXED_REFLECTIVE", "II_{12,2}(3^{-5})", 25)
    assert verify_all()["transfers_ok"] == [False] + [True] * 10


def test_a_transfer_that_fails_its_check_covers_nothing(monkeypatch):
    """U+U(23)+L23 at k = 2 transfers to (1, 23, 24), and 2U+L23 at k = 24 makes that a
    table row, but (1, 23, 24) fails the candidate check on L23: the transfer fails,
    and its source row is neither covered nor certified by it."""
    label = "II_{4,2}(23^{-3})"
    _replace_row(monkeypatch, "MIXED_REFLECTIVE", label, 2)
    _replace_row(monkeypatch, "MIXED_REFLECTIVE", "II_{4,2}(23^{+1})", 24)
    rep = replay_transfer(TRANSFERS[-1])
    assert rep["from"] == "U+U(23)+L23" and (rep["row_ok"], rep["target_check_ok"]) == (True, False)
    assert verify_all()["transfers_ok"] == [True] * 10 + [False]
    assert (label, 1, 1, 2) not in covered_rows()
    status = verdict_table(verify=True)["verification"][label]
    assert "tower-covered" not in status.values()


@pytest.mark.parametrize(
    "mutation",
    [
        test_a_wrong_mixed_row_fails_its_tower,
        test_a_wrong_strongly_2_row_fails_the_ladder_and_is_uncovered,
        test_a_wrong_transfer_target_row_fails_that_transfer,
        test_a_transfer_that_fails_its_check_covers_nothing,
    ],
    ids=lambda test: test.__name__.removeprefix("test_"),
)
def test_a_mutation_fails_after_a_warm_certified_table(mutation, monkeypatch):
    """The lattices the catalog keeps carry no table row: after a full certified
    table and replay, each mutated row still fails its towers."""
    verdict_table(verify=True)
    verify_all()
    mutation(monkeypatch)


def test_a_warm_certify_pass_builds_no_lattice():
    """Once the certified table and the replay have run, running both again builds
    no lattice: every model is read from the catalog."""
    verdict_table(verify=True)
    verify_all()
    with lattice_builds() as built:
        table = verdict_table(verify=True)
        replay = verify_all()
    assert built == []
    assert table["count"] == 55 and all(replay["towers"].values())


def test_a_change_to_a_replay_reaches_no_later_replay():
    """Each call hands out new levels and reports, never the plan the catalog
    keeps: changing what a replay returns changes no later replay."""
    before = (verify_all(), covered_rows(), [replay_tower(tower) for tower in TOWERS],
              [replay_transfer(tr) for tr in TRANSFERS])
    for tower in TOWERS:
        levels = replay_tower(tower)
        for level in levels:
            level.update(expr="", genus="", drop="E8", weight=0, row=False)
        levels.reverse()
    for tr in TRANSFERS:
        replay_transfer(tr).update(genus="", source=None, target=None, scales_ok=False,
                                   row_ok=False, target_check_ok=False, ok=False)
    assert (verify_all(), covered_rows(), [replay_tower(tower) for tower in TOWERS],
            [replay_transfer(tr) for tr in TRANSFERS]) == before


def test_a_tower_one_level_taller_fails():
    """U+U(3)+7A2 has no table row, so a p3 tower from it has no base weight and
    no level of it lands."""
    name, p, mults, block, top = BY_NAME["p3-pullback"]
    levels = replay_tower((name, p, mults, block, top + 1))
    assert [level["expr"] for level in levels][:2] == ["U+U(3)+7A2", "U+U(3)+6A2"]
    assert [level["weight"] for level in levels] == [None] * 7
    assert not any(level["ok"] for level in levels)
