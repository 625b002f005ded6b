"""Command line surface: exit codes, text reports, and canonical JSON."""
from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reflector
from reflector import classify as classify_mod
from reflector import cli, discforms
from reflector.classify import reflective_genera
from reflector.cli import main
from reflector.catalog import default_catalog
from reflector.discforms import (
    DiscriminantForm,
    GenusNotRepresentable,
    GenusSymbol,
    candidate_form,
    parse_genus,
)


def run_cli(argv, capsys):
    code, out, _ = run_cli_err(argv, capsys)
    return code, out


def run_cli_err(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, err):
    assert code == 1
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_lattice_report(capsys):
    code, out = run_cli(["lattice", "--lattice", "2U+T8", "--prime", "5"], capsys)
    assert code == 0
    assert "II_{10,2}(5^{-1})" in out
    assert "det 5" in out


def test_lattice_json_is_canonical(capsys):
    code, out = run_cli(
        ["lattice", "--lattice", "2U+T8", "--prime", "5", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == "II_{10,2}(5^{-1})"
    assert out.strip() == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_solve_json_pinned(capsys):
    code, out = run_cli(
        ["solve", "--lattice", "2U+2E8+D4", "--prime", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert out.strip() == (
        '{"c":30,"c1":1,"count_long":24,"count_short":504,"cp":8,"k":24,'
        '"k_coeffs":null,"reason":"","status":"ray"}'
    )


# `classify --prime 3 --format json` is 5375 bytes, so it is pinned by its sha256
CLASSIFY_3_JSON_SHA256 = "268b255f1db923adb7cff649e2f9f35580d61f4f129d32fa5c47659b2e7c26bc"
CHECK_E6_A2_JSON = (
    '{"c":12,"c1":1,"checks":{"counting_identity":true,"coxeter_identity":null,'
    '"matrix_identity":true,"singular_bound":true},"count_long":6,"count_short":78,'
    '"cp":9,"k":90,"p":3,"passed":true,"rank":8,"span_short":8}\n'
)


def test_record_json_is_pinned(capsys):
    """Classification records and a check report keep their canonical JSON byte for byte."""
    code, out = run_cli(["classify", "--prime", "3", "--format", "json"], capsys)
    assert code == 0 and len(out) == 5375
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_3_JSON_SHA256
    argv = ["check", "--lattice", "2U+E6+A2", "--prime", "3", "--c1", "1", "--cp", "9", "--k", "90"]
    assert run_cli(argv + ["--format", "json"], capsys) == (0, CHECK_E6_A2_JSON)


# the certified table and the tower replay, pinned byte for byte
CLASSIFY_VERIFY_JSON_SHA256 = "0230d9ce63db3e57181db0947106faf48ec1ad204b5354d46938504506d89e53"
TOWER_JSON_SHA256 = "a5527e7274274605aa02f27533ff82317d378500db5440bcce0df396b9e84a3d"


def test_certified_table_and_tower_json_are_pinned(capsys):
    for argv, size, digest in (
        (["classify", "--verify"], 23902, CLASSIFY_VERIFY_JSON_SHA256),
        (["tower"], 209, TOWER_JSON_SHA256),
    ):
        code, out = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and len(out) == size, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "expr, code", [("99999A1", 3), ("A99999", 3), ("1001A1", 3), ("1000A1", 0)]
)
def test_an_oversized_lattice_exits_three_before_its_gram(expr, code):
    """99999A1 would need a Gram of 10^10 entries.  In a process capped at 1 GiB of
    address space it is refused by its rank with one line and exit 3; 1000A1, at
    10^6 = discforms.BUDGET entries, is still built."""
    env = {**os.environ, "PYTHONPATH": str(Path(reflector.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "reflector.cli", "lattice", "--lattice", expr],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
    )
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stdout == "" and proc.stderr.startswith("budget exceeded: ")
        assert len(proc.stderr.splitlines()) == 1
    else:
        assert "rank 1000, signature (1000,0)" in proc.stdout


def test_check_pass_and_fail_exit_codes(capsys):
    code_ok, out_ok = run_cli(
        ["check", "--lattice", "2U+D4", "--prime", "2", "--c1", "1", "--cp", "1", "--k", "96"],
        capsys,
    )
    assert code_ok == 0
    assert "PASS" in out_ok
    code_bad, out_bad = run_cli(
        ["check", "--lattice", "2U+D4", "--prime", "2", "--c1", "1", "--cp", "1", "--k", "95"],
        capsys,
    )
    assert code_bad == 2
    assert "FAIL" in out_bad


def test_check_refuses_a_model_with_a_rescaled_plane(capsys):
    """Every U + U(p) + K table row is certified, by its towers and transfers; the
    candidate check does not model the rescaled plane, so `check` exits 1 with one
    line that points to `reflector tower`, while `solve` still answers."""
    rows = [(m, parse_genus(g).p, c1, cp, k) for g, m, c1, cp, k in classify_mod.table_rows()
            if not m.startswith("2U+")]
    assert len(rows) == 12
    for model, p, c1, cp, k in rows:
        code, out, err = run_cli_err(["check", "--lattice", model, "--prime", str(p), "--c1",
                                      str(c1), "--cp", str(cp), "--k", str(k)], capsys)
        assert_one_line_error(code, err)
        assert out == "" and f"U({p})" in err and "`reflector tower`" in err, model
        code, _ = run_cli(["solve", "--lattice", model, "--prime", str(p)], capsys)
        assert code == 0, model


@pytest.mark.parametrize(
    "command, model",
    [("check", "U+E6v(3)+2A2"), ("check", "E6v(3)+2A2"), ("check", "3U+E6v(3)+2A2"),
     ("check", "U(3)+U(3)+2A2"), ("solve", "U+E6v(3)+2A2"), ("solve", "E6v(3)+2A2"),
     ("solve", "3U+E6v(3)+2A2"), ("solve", "U(3)+U(3)+2A2")],
)
def test_check_and_solve_refuse_a_model_without_two_planes(command, model, capsys):
    """Both read the definite part of U + U(m) + K (check only 2U + K): a model with
    one, none, three or two rescaled planes exits 1, where check gave a verdict and
    solve answered "ray (1,1), weight 12"."""
    argv = [command, "--lattice", model, "--prime", "3"]
    if command == "check":
        argv += ["--c1", "1", "--cp", "1", "--k", "12"]
    code, out, err = run_cli_err(argv, capsys)
    assert_one_line_error(code, err)
    assert out == "" and "two hyperbolic planes" in err


def test_check_json_shape(capsys):
    code, out = run_cli(
        [
            "check", "--lattice", "2U+D4", "--prime", "2",
            "--c1", "1", "--cp", "1", "--k", "96", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"]["matrix_identity"] is True
    assert payload["count_short"] == 24 and payload["count_long"] == 24


def test_discform_subcommand(capsys):
    code, out = run_cli(
        ["discform", "--genus", "II_{12,2}(3^{+7})", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3**7
    assert payload["norm_2_over_p_count"] == 756


def _walked_discform_json(p, n_p, eps):
    """The `discform` JSON of a genus, from a walk over all p^n_p elements of its form."""
    form = candidate_form(p, n_p, eps)
    payload = {
        "orders": list(form.orders),
        "order": form.order(),
        "level": form.level(),
        "milgram_octant": form.milgram_octant(),
        "norm_2_over_p_count": form.count_norm(Fraction(2, p)),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _small_genera():
    """A genus II_{2+s,2}(p^{eps n_p}) for every representable (p <= 7, n_p <= 4, eps)."""
    for p in (2, 3, 5, 7):
        for n_p in range(5):
            for eps in (1, -1):
                try:
                    octant = candidate_form(p, n_p, eps).milgram_octant()
                except GenusNotRepresentable:
                    continue
                yield GenusSymbol(2 + octant, 2, p, n_p, eps).label()


def test_discform_genus_is_the_closed_form_of_the_walk(capsys):
    labels = reflective_genera() + list(_small_genera())
    assert len(labels) == 55 + 32
    for label in labels:
        code, out = run_cli(["discform", "--genus", label, "--format", "json"], capsys)
        g = parse_genus(label)
        assert code == 0
        assert out.strip() == _walked_discform_json(g.p, g.n_p, g.eps), label


def test_discform_genus_answers_fast_at_large_p_rank(capsys):
    """3^15 elements would take tens of seconds to walk."""
    start = time.perf_counter()
    code, out = run_cli(["discform", "--genus", "II_{16,2}(3^{-15})"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "Milgram octant 6" in out


def test_roots_subcommand(capsys):
    code, out = run_cli(
        ["roots", "--lattice", "2U+T4", "--prime", "5", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    names = sorted(c["name"] for c in payload["components"])
    assert names == ["A2", "A2(5)"]
    assert payload["count_norm2"] == 6
    assert payload["count_norm2p"] == 6


def test_roots_off_level_p_counts_the_long_roots(capsys):
    """D4(2) + 2A1(2) has level 8, where 2 G^-1 is not integral: at p = 2 its 14
    positive long roots are reported, as 28 vectors with both signs."""
    code, out = run_cli(["roots", "--lattice", "D4(2)+2A1(2)", "--prime", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "0 vectors of norm 2, 28 reflective vectors of norm 2*2"


ETA_F6 = "1*q^(-1) + 8 + 52*q^(1) + 256*q^(2) + 1122*q^(3) + 4352*q^(4) + O(q^(5))"
ETA_F6_S = (
    "1*q^(-1/2) + 8 + 52*q^(1/2) + 256*q^(1) + 1122*q^(3/2) + 4352*q^(2) + O(q^(5/2))"
)


def test_eta_subcommand(capsys):
    code, out = run_cli(["eta", "--precision", "6"], capsys)
    assert code == 0
    assert out.splitlines()[:2] == [f"f = {ETA_F6}", f"f|S = 16 * sqrt(2)^0 * ({ETA_F6_S})"]


@pytest.mark.parametrize("label, status", [
    ("II_{14,2}(2_II^{-2})", "check-failed"),  # 2U+E8+D4, judged by the candidate check
    ("II_{6,2}(5^{-4})", "uncovered"),  # U+U(5)+T4, judged by the towers
])
def test_classify_verify_exits_two_on_a_row_that_fails(label, status, monkeypatch, capsys):
    """k + 1 on one mixed row: the genera still match the tables, but the row fails
    its verification, so `classify --verify` exits 2, and its text output names the
    genus, the row and the status in one line, the only such line."""
    changed = [(g, m, k + 1, *rest) if g == label else (g, m, k, *rest)
               for g, m, k, *rest in classify_mod.MIXED_REFLECTIVE]
    monkeypatch.setattr(classify_mod, "MIXED_REFLECTIVE", changed)
    code, out = run_cli(["classify", "--verify"], capsys)
    assert code == 2 and "construction tables match" in out
    assert [line for line in out.splitlines() if line.startswith("row ")] == [
        f"row mixed[0] of {label}: {status}"]
    code, out = run_cli(["classify", "--verify", "--format", "json"], capsys)
    table = json.loads(out)
    assert code == 2 and table["matches_construction_tables"]
    assert table["verification"][label]["mixed[0]"] == status


def test_tower_subcommand(capsys):
    code, out = run_cli(["tower", "--format", "json"], capsys)
    assert code == 0
    names = ["p2-pullback", "p3-pullback", "p3-short-root-ladder", "p5-pullback",
             "p7-pullback", "p11-pullback"]
    assert out.strip() == json.dumps(
        {"towers": dict.fromkeys(names, True), "transfers_ok": [True] * 11},
        sort_keys=True, separators=(",", ":"),
    )


def test_classify_prime_with_eliminations_exits_two(capsys):
    code, out = run_cli(["classify", "--prime", "19"], capsys)
    assert code == 2
    assert "NOT_REFLECTIVE" in out


def test_classify_prime_all_reflective_exits_zero(capsys):
    code, out = run_cli(["classify", "--prime", "2"], capsys)
    assert code == 0
    assert out.count("REFLECTIVE") >= 15


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--prime", "1000000000000000003"], 2),
        (["lattice", "--lattice", "2U+E8(1000000000000000003)", "--prime",
          "1000000000000000003"], 0),
    ],
    ids=["classify", "lattice"],
)
def test_a_large_prime_is_answered_in_seconds(argv, code):
    """Primality by Miller-Rabin and n_p by dividing p out of det: neither command
    runs trial division up to sqrt(p) = 10^9."""
    env = {**os.environ, "PYTHONPATH": str(Path(reflector.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "reflector.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_classify_refuses_verify_with_a_prime(capsys):
    """--verify re-checks the table of every prime, so with --prime it would verify
    nothing: the pair is refused, in either order, with exit 1 and one line."""
    for argv in (["classify", "--prime", "13", "--verify"],
                 ["classify", "--verify", "--prime", "13", "--format", "json"]):
        code, out, err = run_cli_err(argv, capsys)
        assert_one_line_error(code, err)
        assert "not allowed with" in err and out == ""


def test_a_prime_past_the_proven_bound_is_a_one_line_error(capsys):
    code, out, err = run_cli_err(["classify", "--prime", str(discforms.MR_LIMIT)], capsys)
    assert_one_line_error(code, err)
    assert "cannot decide whether" in err and out == ""


def test_solve_text_report(capsys):
    code, out = run_cli(["solve", "--lattice", "2U+L7", "--prime", "7"], capsys)
    assert code == 0
    assert "multiplicities (1,7)" in out
    assert "weight 28" in out


def test_unknown_lattice_name_is_an_error(capsys):
    code, _ = run_cli(["lattice", "--lattice", "2U+Q5", "--prime", "3"], capsys)
    assert code == 1


def test_unknown_subcommand_is_an_error(capsys):
    code, _ = run_cli(["frobnicate"], capsys)
    assert code not in (0, None)


def test_missing_required_argument(capsys):
    code, _ = run_cli(["check", "--lattice", "2U+D4"], capsys)
    assert code not in (0, None)


def test_eta_json_keys_are_exponents(capsys):
    code, out = run_cli(["eta", "--precision", "6", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["f_terms"] == {"-1": 1, "0": 8, "1": 52, "2": 256, "3": 1122, "4": 4352}
    assert payload["f"] == ETA_F6
    assert payload["f_transformed"] == ETA_F6_S
    assert payload["transform_scalar"] == 16
    assert payload["transform_sqrt_power"] == 0


# `eta --format json` at the two ends of --precision, pinned by size and sha256
ETA_JSON_PINS = {
    1: (252, "8ea21f314bc117d5c82ee841669b0df8acb17c5d70fe4ab53ca5d62ac3701ff3"),
    200: (22144, "86927f577d224e321eeff590eff3e7f75869ee478100c02ce57bb68752c95fe9"),
}


@pytest.mark.parametrize("terms", sorted(ETA_JSON_PINS))
def test_eta_json_is_pinned_at_the_ends_of_its_range(terms, capsys):
    code, out = run_cli(["eta", "--precision", str(terms), "--format", "json"], capsys)
    size, digest = ETA_JSON_PINS[terms]
    assert code == 0 and len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_repeated_calls_share_no_state(capsys):
    """One process answers each request the same, whatever ran before it."""
    requests = [
        ["check", "--lattice", "2U+D4"],
        ["eta", "--precision", "6"],
        ["eta"],
        ["eta", "--precision", "0"],
        # the strongly 2-reflective row II_{6,2}(2_II^{-2})
        ["check", "--lattice", "2U+D4", "--prime", "2", "--c1", "1", "--cp", "0", "--k", "72"],
        ["classify", "--prime", "3", "--format", "json"],
    ]
    first = [run_cli_err(argv, capsys) for argv in requests]
    assert [code for code, _, _ in first] == [1, 0, 0, 1, 0, 0]
    f_line = first[2][1].splitlines()[0]
    assert f_line.endswith(" + O(q^(11))") and f_line.count(" + ") == 12  # the default 12 terms
    again = [run_cli_err(argv, capsys) for argv in reversed(requests)]
    assert again[::-1] == first


def test_import_builds_no_parser():
    """`import reflector` leaves the CLI out, and importing the CLI builds no parser."""
    code = (
        "import sys, reflector; assert 'reflector.cli' not in sys.modules; "
        "from reflector import cli; assert cli.build_parser.cache_info().currsize == 0"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(reflector.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_import_loads_neither_dataclasses_nor_json():
    """A fresh `python -I` loads no dataclasses, inspect or json for `import reflector`
    and the T8 build, and no dataclasses or inspect for the CLI module."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import reflector\n"
        "def absent(*names): assert not set(names) & set(sys.modules), set(names) & set(sys.modules)\n"
        "absent('dataclasses', 'inspect', 'json')\n"
        "reflector.default_catalog().build('T8'); absent('dataclasses', 'inspect', 'json')\n"
        "from reflector import cli; absent('dataclasses', 'inspect')\n"
    )
    src = str(Path(reflector.__file__).parents[1])
    subprocess.run([sys.executable, "-I", "-c", code, src], check=True, timeout=60)


def test_discform_without_source_is_a_one_line_error(capsys):
    code, out, err = run_cli_err(["discform"], capsys)
    assert_one_line_error(code, err)
    assert "--lattice or --genus" in err
    assert out == ""


PRIME_COMMANDS = [
    ["roots", "--lattice", "2U+D4"],
    ["check", "--lattice", "2U+D4", "--c1", "1", "--cp", "1", "--k", "96"],
    ["solve", "--lattice", "2U+D4"],
    ["classnumber", "--rank", "6", "--c1", "1", "--cp", "1", "--k", "24", "--np", "3"],
]


@pytest.mark.parametrize("argv", PRIME_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("prime", ["4", "0", "-3", "1"])
def test_non_prime_is_a_one_line_error(argv, prime, capsys):
    code, out, err = run_cli_err(argv + ["--prime", prime], capsys)
    assert_one_line_error(code, err)
    assert "is not a prime" in err
    assert "positive definite" not in err
    assert out == ""


CLASSNUMBER = ["classnumber", "--rank", "6", "--prime", "3", "--k", "24"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["roots", "--lattice", "2U", "--prime", "2"], "no definite part"),
        (["check", "--lattice", "2U", "--prime", "2", "--c1", "1", "--cp", "1", "--k", "96"],
         "no definite part"),
        (["solve", "--lattice", "2U", "--prime", "2"], "no definite part"),
        (CLASSNUMBER + ["--c1", "1", "--cp", "1", "--np", "-1"], "n_p"),
        (CLASSNUMBER + ["--c1", "-1", "--cp", "1", "--np", "3"], "multiplicities"),
        (CLASSNUMBER + ["--c1", "0", "--cp", "0", "--np", "3"], "multiplicities"),
        (["classnumber", "--rank", "-4", "--prime", "3", "--c1", "1", "--cp", "1", "--k", "12",
          "--np", "1"], "rank"),
        (["eta", "--precision", "1000"], "between 1 and 200"),
        (["eta", "--precision", "0"], "between 1 and 200"),
        (["lattice", "--lattice", "A2+A4", "--prime", "3"], "level 15 is not 1 or the prime 3"),
        (["discform", "--genus", "II_{6,2}(5^{+1})", "--prime", "3"], "not the prime 5"),
    ],
    ids=["roots 2U", "check 2U", "solve 2U", "negative np", "negative c1", "zero c1 and cp",
         "negative rank", "eta precision 1000", "eta precision 0", "lattice of level 15",
         "discform genus at another prime"],
)
def test_invalid_input_is_a_one_line_error(argv, message, capsys):
    code, out, err = run_cli_err(argv, capsys)
    assert_one_line_error(code, err)
    assert message in err
    assert out == ""


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"lattices": {"X": 5}}', "'X' is not a list of lists of integers"),
        ('{"lattices": [1, 2]}', "must map names to Gram matrices"),
        ("[1]", "is not a JSON object"),
        ('{"lattices": {"X": [[null]]}}', "'X' is not a list of lists of integers"),
        ('{"lattices": []}', "must map names to Gram matrices"),
        ('{"lattices": null}', "must map names to Gram matrices"),
        ('{"lattices": 0}', "must map names to Gram matrices"),
        ('{"lattices": ""}', "must map names to Gram matrices"),
        ('{"lattice": {"T4": [[2, 1], [1, 2]]}}', "has keys other than \"lattices\": ['lattice']"),
        ('{"T4": [[2, 1], [1, 2]]}', "has keys other than \"lattices\": ['T4']"),
        ('{"lattices": {"D4": [[2, 1, 0, -1], [1, 2, 1, -1], [0, 1, 2, -1], [-1, -1, -1, 2]]}}',
         "catalog entry 'D4' overrides a root lattice built by rule"),
    ],
    ids=["entry not a list", "lattices not an object", "top level not an object", "null entry",
         "lattices empty list", "lattices null", "lattices zero", "lattices empty string",
         "misspelled key", "grams at the top level", "rebased root lattice"],
)
def test_a_malformed_user_catalog_is_a_one_line_error(text, message, via, tmp_path,
                                                      monkeypatch, capsys):
    """A user catalog of the wrong shape, or one that gives a root lattice another
    basis, named by --catalog or REFLECTOR_CATALOG, exits 1 with one line on stderr,
    never a traceback."""
    path = tmp_path / "catalog.json"
    path.write_text(text)
    argv = ["lattice", "--lattice", "2U+X", "--prime", "3"]
    if via == "flag":
        argv += ["--catalog", str(path)]
    else:
        monkeypatch.setenv("REFLECTOR_CATALOG", str(path))
    code, out, err = run_cli_err(argv, capsys)
    assert_one_line_error(code, err)
    assert message in err
    assert out == ""


def test_classnumber_searches_the_root_data_once(monkeypatch, capsys):
    """`classnumber` prints the root data and counts their classes from one search."""
    calls = []
    search = classify_mod.class_number_rootsystems

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(classify_mod, "class_number_rootsystems", counted)
    monkeypatch.setattr(cli, "class_number_rootsystems", counted)
    code, out = run_cli(["classnumber", "--rank", "8", "--prime", "3", "--c1", "1", "--cp", "1",
                         "--k", "18", "--np", "6"], capsys)
    assert code == 0
    assert calls == [(8, 3, 1, 1, 18)]
    assert out.splitlines() == [
        "root datum A1+A1+A1+A5(3): C = 2, det 11664",
        "root datum E6(3)+G2: C = 4, det 6561",
        "class number 1",
    ]


def test_classnumber_past_the_budget_exits_three(capsys):
    """The rank-12 datum A1(2)^12 needs a scan of 2^24 elements; the budget stops it
    before any glue vector is enumerated."""
    argv = ["classnumber", "--rank", "12", "--prime", "2", "--c1", "1", "--cp", "1",
            "--k", "12", "--np", "4"]
    start = time.perf_counter()
    code, out, err = run_cli_err(argv, capsys)
    assert time.perf_counter() - start < 2
    assert code == 3
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("expr", ["A4(101)", "A2(1000003)", "A1(1000000007)"])
def test_discform_past_the_walk_cap_exits_three(expr, capsys):
    """These forms have 5 * 101^4, 3 * 1000003^2 and 2 * 1000000007 elements; the value
    walk refuses them before it starts, and before the Gauss sum lays out Z/lcm(8, level)."""
    start = time.perf_counter()
    code, out, err = run_cli_err(["discform", "--lattice", expr, "--prime", "7"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded: value walk: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("expr, p", [("E6(3)", 3), ("2U+A4v(5)", 5), ("U+U(2)+D4", 2),
                                      ("2U+L7", 7), ("E8", 3)])
def test_discform_of_a_prime_level_lattice_is_its_walk(expr, p, capsys):
    """Where the lattice has a genus symbol at p, the octant and norm count read off it
    are those of the walk over its discriminant form."""
    form = DiscriminantForm.from_lattice(default_catalog().parse(expr))
    want = {"orders": list(form.orders), "order": form.order(), "level": form.level(),
            "milgram_octant": form.milgram_octant(),
            "norm_2_over_p_count": form.count_norm(Fraction(2, p))}
    code, out = run_cli(["discform", "--lattice", expr, "--prime", str(p), "--format", "json"],
                        capsys)
    assert code == 0 and json.loads(out) == want


def test_discform_of_e8_7_reads_its_genus(capsys):
    """7^8 elements pass the walk cap, but E8(7) has level 7: its genus answers at once."""
    start = time.perf_counter()
    code, out = run_cli(["discform", "--lattice", "E8(7)", "--prime", "7", "--format", "json"],
                        capsys)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out) == {"orders": [7] * 8, "order": 7**8, "level": 7, "milgram_octant": 0,
                               "norm_2_over_p_count": 7**7 - 7**3}


def test_classnumber_of_a_genus_that_does_not_exist_exits_one(capsys):
    """No even definite lattice of rank 2 has determinant 3^99: the count is an
    error, not "class number 0"."""
    argv = ["classnumber", "--rank", "2", "--prime", "3", "--c1", "1", "--cp", "1",
            "--k", "12", "--np", "99"]
    code, out, err = run_cli_err(argv, capsys)
    assert_one_line_error(code, err)
    assert out == "" and "3^99" in err


def test_classnumber_of_a_huge_rank_exits_three(capsys):
    """At rank 2000 the root datum search passes its node budget, on an explicit
    stack, long before Python's recursion limit could matter."""
    argv = ["classnumber", "--rank", "2000", "--prime", "3", "--c1", "1", "--cp", "1",
            "--k", "12", "--np", "1"]
    start = time.perf_counter()
    code, out, err = run_cli_err(argv, capsys)
    assert time.perf_counter() - start < 10
    assert code == 3
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize(
    "argv, budget, what",
    [
        ("discform --lattice A4(101) --prime 7", None, "value walk"),
        # 2U+E8+E8(2)
        ("classnumber --rank 16 --prime 2 --c1 1 --cp 2 --k 12 --np 8", None, "pool scan"),
        # 2U+D8 at (0, 1, 4), whose search passes the default budget after about 1 s
        ("classnumber --rank 8 --prime 2 --c1 0 --cp 1 --k 4 --np 2", 10**5,
         "isotropic subgroup search"),
        ("classnumber --rank 2000 --prime 3 --c1 1 --cp 1 --k 12 --np 1", None,
         "root datum search"),
        ("lattice --lattice 99999A1", None, "Gram check of '99999A1'"),
    ],
    ids=["value-walk", "pool-scan", "subgroup-search", "root-datum-search", "gram-check"],
)
def test_each_budgeted_search_exits_three_naming_itself(argv, budget, what, monkeypatch, capsys):
    """Every search that can reach the budget stops at it through `discforms.charge`:
    exit 3, nothing on stdout, and one stderr line that names the search."""
    if budget is not None:
        monkeypatch.setattr(discforms, "BUDGET", budget)
    code, out, err = run_cli_err(argv.split(), capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"budget exceeded: {what}: ") and len(err.splitlines()) == 1
    assert err.rstrip().endswith(f" operations passed the budget {discforms.BUDGET}")


@pytest.mark.parametrize(
    "genus, code",
    [
        ("II_{4,2}(3^{+9})", 1),
        ("II_{4,2}(3^{+1})", 1),
        ("II_{5,2}(3^{+1})", 1),
        ("II_{4,2}(3^{-1})", 0),
    ],
)
def test_discform_genus_must_exist(genus, code, capsys):
    got, out, err = run_cli_err(["discform", "--genus", genus], capsys)
    if code:
        assert_one_line_error(got, err)
        assert "no genus" in err
    else:
        assert got == 0 and "Milgram octant 2" in out


@pytest.mark.parametrize(
    "genus, message",
    [
        ("II_{4,2}(3^{+x})", "cannot parse genus symbol 'II_{4,2}(3^{+x})'"),
        ("II_{4,2}(9^{-1})", "no genus 'II_{4,2}(9^{-1})': 9 is not prime"),
        ("II_{5,2}(3^{+1})", "no genus 'II_{5,2}(3^{+1})': even lattices have even rank, not 7"),
        ("II_{4,2}(3^{+9})", "no genus 'II_{4,2}(3^{+9})': p-rank 9 exceeds the rank 6"),
        ("II_{6,2}(3^{-0})", "no genus 'II_{6,2}(3^{-0})': trivial form has eps = +1"),
        ("II_{6,2}(2_II^{-3})",
         "no genus 'II_{6,2}(2_II^{-3})': level-2 forms of even type have even rank"),
        ("II_{4,2}(3^{+1})",
         "no genus 'II_{4,2}(3^{+1})': Milgram octant 6 differs from the signature 2 mod 8"),
    ],
    ids=["unparsable", "non-prime", "odd rank", "p-rank above the rank", "eps - at n_p 0",
         "odd n_p at p 2", "wrong octant"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_discform_genus_rejections_are_pinned(genus, message, fmt, capsys):
    """Each kind of rejection of `--genus` prints its own one line, in either format."""
    code, out, err = run_cli_err(["discform", "--genus", genus, "--format", fmt], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
