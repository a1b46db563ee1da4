"""CLI subcommands, exit codes, and ledger output."""

import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bdspace import cli
from bdspace.analysis import (CarrierSource, check_ris,
                              make_dependent_sequence)
from bdspace.certificates import VIOLATED, Check, Ledger
from bdspace.cli import (PILOT_RANKS, forge_arena, load_schedule, main,
                         probe_length_limit, write_rows)
from bdspace.engine import Engine
from bdspace.errors import BruteForceCapExceeded, SearchExhausted
from bdspace.funcs import Func, frac_str
from bdspace.mtnorm import MTParams, mt_norm_exhaustive
from bdspace.schedule import slow_toy_schedule
from bdspace.spaces import forge_even


def write_schedule(tmp_path, m, n, name="sched.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"m": list(m), "n": list(n)}))
    return str(path)


def test_schedule_command(tmp_path, capsys):
    path = write_schedule(tmp_path, (4, 16), (6, 1))
    assert main(["schedule", "--schedule", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "toy" and out["theta"] == "1/4"


def test_schedule_rejects_bad_input(tmp_path, capsys):
    path = write_schedule(tmp_path, (3, 16), (6, 1))
    assert main(["schedule", "--schedule", path]) == 2
    assert "ScheduleViolation" in capsys.readouterr().err
    # an entry that is not an int is refused, not rounded or converted
    for i, (m, n) in enumerate([((4, 16), (6.5, 1)), ((4, 16), (6, True)),
                                (("4", 16), (6, 1))]):
        path = write_schedule(tmp_path, m, n, "bad%d.json" % i)
        for argv in (["schedule"], ["verify", "biorthogonality",
                                    "--stage", "3"]):
            assert main(argv + ["--schedule", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "error: ScheduleViolation: schedule entries must be "
                "integers, got ")
            assert captured.err.count("\n") == 1


def test_gen_and_export(tmp_path, capsys):
    path = write_schedule(tmp_path, (4, 16), (6, 1))
    out = tmp_path / "table.json"
    assert main(["gen", "--schedule", path, "--stage", "4",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 41
    gen_csv = tmp_path / "gen.csv"
    assert main(["gen", "--schedule", path, "--stage", "4",
                 "--format", "csv", "--out", str(gen_csv)]) == 0
    assert gen_csv.read_text().startswith("age,")
    assert read_csv(gen_csv) == [as_csv(row) for row in rows]
    for fmt in ("json", "csv"):
        assert main(["export", "--schedule", path,
                     "--stage", "3", "--format", fmt,
                     "--out", str(tmp_path / ("matrix." + fmt))]) == 0
    matrix = json.loads((tmp_path / "matrix.json").read_text())
    assert len(matrix) == 11
    assert read_csv(tmp_path / "matrix.csv") == [as_csv(r) for r in matrix]


def read_csv(path):
    """The rows of a CSV file, its list and dict cells parsed as JSON."""
    with open(path, newline="") as fh:
        return [{k: json.loads(v) if v.startswith(("[", "{")) else v
                 for k, v in row.items()} for row in csv.DictReader(fh)]


def as_csv(row):
    """A JSON-format row as read_csv gives it back: scalars as strings,
    None as the empty cell."""
    return {k: v if isinstance(v, (list, dict))
            else "" if v is None else str(v) for k, v in row.items()}


def test_export_matrix_digest(tmp_path):
    """The dual-basis rows d*_xi over Gamma_4 of the default schedule,
    pinned byte for byte."""
    out = tmp_path / "matrix.json"
    assert main(["export", "--stage", "4", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "f693ac3ffd2a267e4d73bf59c3885a049b9532b358534b9c2919b60efb2def74"


# (m, n) whose odd guard holds at weight index 6 but not at 2
MIXED_GUARD = ((4, 5, 6, 7, 8, 12, 13, 14), (3, 2, 2, 2, 2, 2, 2, 2))


@pytest.mark.parametrize("argv, size, digest", [
    (["--stage", "6"], 571,
     "a0a668e728bcac64c9685f5bf7746979c49da15d605cdb8368dbe0daa2f02e31"),
    (["--discipline", "BmT", "--stage", "5"], 5425,
     "784784e41430fdd9eec1c911f7922ff75416c6524d145f7cc73024a545a10141"),
    # the perfbench golden gen/table-xk: 80,090 payloads, 2,610 distinct
    (["--schedule", "{xk}", "--stage", "6", "--cap", "200000"], 80091,
     "0ddeebfaac177535627aca760d3972bbb1847e2c87fe69cc68f072f20d3fa4d9"),
    (["--stage", "6", "--mode", "admissible"], 243,
     "cabefe144b12f1cf2317bf8c924d768db8b990529bdc253e6a965a385cf33296"),
    # a mixed guard: m_2 = 5 fails m > n_1^2 = 9 and m_6 = 12 passes;
    # 26 generated odd Type2 links, 84 heads interned under the waiver
    (["--schedule", "{mixed}", "--stage", "5"], 2621,
     "d169fc4e21705a1d62f96b73ea7f567bb3c561273d77e8dd1d0187159e842f7f"),
    (["--schedule", "{mixed}", "--stage", "5", "--mode", "admissible"], 1997,
     "fee7fe1b93dd475e5cb868be9224bf401fe7d44254e5400332af38ae007e4043"),
], ids=["XK-stage6", "BmT-stage5", "XK-n2=2-stage6", "XK-admissible-stage6",
        "XK-mixed-stage5", "XK-mixed-admissible-stage5"])
def test_gen_table_digest(argv, size, digest, tmp_path):
    """The JSON stage tables, kind column included, pinned byte for
    byte."""
    xk = write_schedule(tmp_path, (4, 16), (6, 2))
    mixed = write_schedule(tmp_path, MIXED_GUARD[0], MIXED_GUARD[1],
                           "mixed.json")
    out = tmp_path / "table.json"
    assert main(["gen", *[a.format(xk=xk, mixed=mixed) for a in argv],
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == size
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_csv_table_digest(tmp_path):
    """The CSV stage table of the default schedule, its payload cells in
    compact JSON, pinned byte for byte."""
    out = tmp_path / "table.csv"
    assert main(["gen", "--stage", "6", "--format", "csv",
                 "--out", str(out)]) == 0
    assert len(read_csv(out)) == 571
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "b0a0b783f6216c78244720866114f701aa7c63082727dcf5300930aec2596d8b"


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=2 ** 64)
                | st.integers(max_value=-2 ** 64)
                | st.floats() | st.text()
                | st.text(alphabet='"\\\x00\x1f\x7f\n\té\u2028\U0001f600/'))
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)
# keys a %-template or the string encoder could be confused by
table_keys = st.text(alphabet='%sd"\\\x00\x1f\n\u2028é\U0001f600 ',
                     max_size=4)


def tables(keys, cells, max_rows):
    """Tables: lists of plain dicts with one non-empty key list, in one
    order, each cell drawn from `cells`."""
    def rows(names):
        row = st.tuples(*[cells] * len(names)).map(
            lambda values: dict(zip(names, values)))
        return st.lists(row, max_size=max_rows)
    return st.lists(keys, min_size=1, max_size=4, unique=True).flatmap(rows)


def dumped(rows):
    """The oracle: what `json.dump(rows, indent=1)` and a newline write."""
    out = io.StringIO()
    json.dump(rows, out, indent=1)
    out.write("\n")
    return out.getvalue()


def written(rows):
    out = io.StringIO()
    write_rows(rows, out, "json")
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(tables(table_keys, json_values, 5))
def test_json_row_writer_matches_json_dump(rows):
    assert written(rows) == dumped(rows)


@pytest.mark.parametrize("rows", [[], [{"a": []}], [{"a": {}}],
                                  [{"a": {}}, {"a": []}, {"a": [[], {}]}],
                                  [{"a": None, "b": [True, False, -1]}],
                                  [{"\x00\"\\é": 2 ** 70}],
                                  [{"%s": "%d", "100%": {"%%": [1]}}],
                                  # a raw newline or line separator in keys
                                  # and strings: in a nested dict, in a
                                  # tuple cell and in a list cell
                                  [{"a\n": {"k\n\u2028": "v\n\u2028",
                                            "\u2028": [("\n",)]}},
                                   {"a\n": ("s\n", "\u2028",
                                            {"t\n": "\u2028\n"})},
                                   {"a\n": {"o\n": "\u2028",
                                            "p": ("q\n", {"\n": 1})}},
                                   {"a\n": ["l\n", ("\u2028\n",),
                                            {"m\u2028": "\n"}]}],
                                  # lists of flat lists, as d* rows: strings
                                  # spelling the item break, empty items, a
                                  # float item, and items mixing types
                                  [{"r": [[1, "],\n    ["], ["]", "[", "]["]]},
                                   {"r": ([],)}, {"r": [[1], []]},
                                   {"r": [[0.5, 1]]}, {"r": [(1,), [2]]},
                                   {"r": ((True, None), [2 ** 70, "\u2028"])},
                                   {"r": [[1, [2]]]}, {"r": [[1], {}]}]])
def test_json_row_writer_edge_cases(rows):
    assert written(rows) == dumped(rows)


# equal scalars of three types: a memo keyed by value would mix them up
mixed_scalars = st.sampled_from([1, True, 1.0, 0, False, 0.0, "1", None])
shared_values = st.recursive(
    mixed_scalars,
    lambda inner: (st.lists(inner, max_size=3).map(tuple)
                   | st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from("xy"), inner,
                                     max_size=2)),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_json_row_writer_with_shared_values(data):
    """Table cells that share nested objects, at one depth or several,
    mixing 1, True and 1.0, write as `json.dump` writes them."""
    pool = data.draw(st.lists(shared_values, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    cell = (pick | st.lists(pick, max_size=3).map(tuple)
            | st.lists(pick, max_size=3))
    rows = data.draw(tables(st.sampled_from("abc"), cell, 6))
    assert written(rows) == dumped(rows)


def test_json_row_writer_keeps_types_apart():
    shared = ((1, "1/1"),)
    rows = [{"p": (1,), "q": shared}, {"p": (True,), "q": [shared, [shared]]},
            {"p": (1.0,), "q": (1,)}, {"p": [1], "q": (True,)},
            {"p": shared, "q": shared}, {"p": (1,), "q": (1.0,)}]
    assert written(rows) == dumped(rows)
    assert '"p": [\n   true\n  ]' in written(rows)


def test_table_blocks_match_json_dump():
    """A table of two full blocks and three rows, its payload tuples
    shared across blocks and a column flat in the first two blocks but
    not in the last, writes as `json.dump` writes it."""
    n = cli.ROW_BLOCK
    payloads = [((i, "1/1"), (i + 1, "-1/2")) for i in range(5)]
    rows = [{"id": i, "kind": "Type1", "payload": payloads[i % 5],
             "sigma": None if i < 2 * n else (i, [i])}
            for i in range(2 * n + 3)]
    assert written(rows) == dumped(rows)


@pytest.mark.parametrize("rows", [
    # strings the column separator, the encoder's item separator or a
    # template could be confused by
    [{"s": v, "t": "x"} for v in ["\0", "a\0b", ", ", '", "', "\0, \0",
                                  "é", "\u2028", "\U0001f600", "%s", "%%",
                                  "", "\\", "\n"]],
    # bool columns next to int columns, and a column mixing the two
    [{"flag": i % 2 == 0, "n": i, "mix": [1, True, 0, False][i % 4],
      "big": 2 ** 70 * (-1) ** i} for i in range(9)],
    # floats, alone and in a column with ints
    [{"x": v, "y": 1.0, "z": [1, 1.0][i % 2]}
     for i, v in enumerate([0.5, -0.0, 1e300, float("inf"), float("nan"),
                            float("-inf"), 3.0])],
    # None columns and a column None in every row but one
    [{"p": None, "q": None if i else "only"} for i in range(4)],
], ids=["strings", "bools-and-ints", "floats", "nulls"])
def test_json_column_runs_match_json_dump(rows):
    assert written(rows) == dumped(rows)


def test_csv_writes_a_tuple_as_a_list(tmp_path):
    """A tuple cell, as stage tables export payloads, is the compact JSON
    of the list it stands for."""
    def csv_text(payload):
        out = io.StringIO()
        write_rows([{"id": 3, "payload": payload}, {"id": 4, "payload": None}],
                   out, "csv")
        return out.getvalue()
    text = csv_text(((0, "1/1"), (2, "-1/2")))
    assert text == csv_text([[0, "1/1"], [2, "-1/2"]])
    assert '"[[0,""1/1""],[2,""-1/2""]]"' in text


def test_norm_command(tmp_path, capsys):
    sched = write_schedule(tmp_path, (4, 16), (6, 1))
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps([[1, "1/1"]]))
    assert main(["norm", "--schedule", sched, "--stage", "6", str(pt)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lower"] == "1/1"


def test_mtnorm_avg_prints_exact_value(tmp_path, capsys):
    n2 = 16 ** 2 * (4 * 128) ** 4
    sched = write_schedule(tmp_path, (4, 16), (128, n2))
    assert main(["mtnorm", "--schedule", sched, "--avg", "j0=1"]) == 0
    assert capsys.readouterr().out.strip() == "1/4"
    assert main(["mtnorm", "--schedule", sched, "--avg", "j0=1",
                 "--excluded", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1/16"


def test_mtnorm_point_with_tree(tmp_path, capsys):
    sched = write_schedule(tmp_path, (4, 16), (6, 1))
    pt = tmp_path / "x.json"
    pt.write_text(json.dumps([[1, "1/1"], [4, "-1/2"]]))
    assert main(["mtnorm", "--schedule", sched, "--point", str(pt),
                 "--tree"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "1/1"
    assert "leaf" in lines[1]


def test_mtnorm_cap_one(tmp_path, capsys):
    """--factor 1 gives the pair (1, 1/16): the oracle's value, exit 0."""
    sched = write_schedule(tmp_path, (4, 16), (6, 1))
    pt = tmp_path / "x.json"
    pt.write_text(json.dumps([[k, "1/1"] for k in range(1, 9)]))
    assert main(["mtnorm", "--schedule", sched, "--factor", "1",
                 "--point", str(pt)]) == 0
    params = MTParams.from_schedule(load_schedule(sched), factor=1)
    oracle = mt_norm_exhaustive({k: Fraction(1) for k in range(1, 9)}, params)
    assert capsys.readouterr().out.strip() == frac_str(oracle) == "3/2"


def test_forge_command(tmp_path, capsys):
    sched = write_schedule(tmp_path, (4, 16), (6, 1))
    spec = tmp_path / "forge.json"
    spec.write_text(json.dumps(
        {"even": [{"j": 1, "cuts": [7], "payloads": [[[0, "1/1"]]]}]}))
    assert main(["forge", "--schedule", sched, "--stage", "6",
                 str(spec)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["forged"] == [571]


def test_verify_exit_zero_and_ledger(tmp_path, capsys):
    out = tmp_path / "ledger.jsonl"
    assert main(["verify", "biorthogonality", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["counts"]["violated"] == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows and rows[0]["verdict"] == "verified"


def test_verify_seeded_suites_quick(capsys):
    assert main(["verify", "mt-oracle", "--cases", "25"]) == 0
    assert main(["verify", "lowerest", "--cases", "5"]) == 0
    capsys.readouterr()


def test_mt_oracle_tallies_a_case_that_raises(monkeypatch, capsys):
    """A case whose oracle raises a library error is a failure row of
    the tally, as in every seeded suite, and the run exits 1."""
    calls = []

    def exhaustive_once(x, params):
        calls.append(x)
        if len(calls) == 2:
            raise BruteForceCapExceeded("budget spent")
        return mt_norm_exhaustive(x, params)
    monkeypatch.setattr(cli, "mt_norm_exhaustive", exhaustive_once)
    ledger = cli.suite_mt_oracle(Ledger(), cases=3)
    (cert,) = ledger.certificates
    assert cert.verdict == VIOLATED
    assert cert.values["failures"] == 1
    assert cert.detail["first_failures"] == [[1, "budget spent"]]
    calls.clear()
    assert main(["verify", "mt-oracle", "--cases", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["counts"]["violated"] == 1


def test_verify_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["verify", "eval-analysis", "--out", str(a)]) == 0
    assert main(["verify", "eval-analysis", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_rerun_into_one_path_is_byte_identical(tmp_path):
    """The ledger file holds one run: a second run into the same path
    replaces the first instead of appending to it."""
    path = tmp_path / "l.jsonl"
    assert main(["verify", "mt-oracle", "--cases", "5",
                 "--out", str(path)]) == 0
    first = path.read_bytes()
    assert first.count(b"\n") == 1
    assert main(["verify", "mt-oracle", "--cases", "5",
                 "--out", str(path)]) == 0
    assert path.read_bytes() == first


@pytest.mark.parametrize("argv", [
    ["verify", "mt-oracle", "--cases", "5"],
    ["hiprobe", "--cases", "1", "--length", "1"],
])
def test_unwritable_ledger_fails_before_the_run(argv, tmp_path, capsys,
                                                monkeypatch):
    def refuse(ledger, cases, seed, length=None):
        raise AssertionError("the run started")
    monkeypatch.setitem(cli.SUITES, "mt-oracle", refuse)
    monkeypatch.setattr(cli, "run_hi_probes", refuse)
    out = tmp_path / "missing" / "l.jsonl"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InputError: cannot write ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--stage", "6", "--schedule", "{schedule}"],
    ["gen", "--stage", "6", "--format", "csv"],
    ["export", "--stage", "6"],
    ["export", "--stage", "6", "--format", "csv"],
])
def test_unwritable_table_fails_before_the_build(argv, tmp_path, capsys,
                                                 monkeypatch):
    """`gen` and `export` open --out before they build the registry, as
    `verify` and `hiprobe` open their ledger before the run."""
    def refuse(*args, **kw):
        raise AssertionError("the build started")
    monkeypatch.setattr(cli, "build_registry", refuse)
    schedule = tmp_path / "s.json"
    schedule.write_text(json.dumps({"m": [4, 16], "n": [6, 2]}))
    out = tmp_path / "missing" / "t.json"
    argv = [a.format(schedule=schedule) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InputError: cannot write ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "lowerest", "--cases", "0"],
    ["hiprobe", "--cases", "0"],
    ["hiprobe", "--length", "99"],
    ["verify", "biorthogonality", "--net", "bogus"],
    ["verify", "treelike", "--net", "dyadic:0"],
    ["verify", "biorthogonality", "--stage", "0"],
    ["verify", "treelike", "--cap", "0"],
    ["verify", "lowerest", "--stage", "3"],
    ["verify", "biorthogonality", "--schedule", "{missing}"],
    ["gen", "--net", "bogus"],
    ["gen", "--stage", "0"],
    ["gen", "--cap", "0"],
    ["gen", "--schedule", "{missing}"],
    ["export", "--net", "bogus"],
    ["export", "--stage", "0"],
    ["export", "--cap", "0"],
    ["export", "--schedule", "{missing}"],
])
def test_option_errors_leave_the_out_file_alone(argv, tmp_path, capsys):
    """Every subcommand with --out checks its options before it opens
    the file, so an option error exits 2 and an existing file keeps its
    bytes."""
    path = tmp_path / "earlier.out"
    path.write_text("an earlier run\n")
    argv = [a.format(missing=tmp_path / "missing.json") for a in argv]
    assert main(argv + ["--out", str(path)]) == 2
    assert path.read_text() == "an earlier run\n"
    assert capsys.readouterr().err.startswith("error: InputError: ")


def test_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["hiprobe", "--schedule", "s.json"],
    ["mtnorm", "--stage", "3"],
    ["schedule", "--seed", "1"],
    ["forge", "--out", "o.json", "spec.json"],
    ["export", "--what", "table"],
])
def test_unread_options_are_rejected(argv):
    with pytest.raises(SystemExit):
        main(argv)


@pytest.mark.parametrize("argv", [
    ["verify", "biorthogonality", "--net", "bogus"],
    ["gen", "--net", "dyadic:x"],
    ["norm", "{zero_point}"],
    ["norm", "{missing}"],
    ["schedule", "--schedule", "{bad_json}"],
    ["schedule", "--schedule", "{no_n}"],
    ["mtnorm", "--avg", "j0=x"],
    ["mtnorm"],
    ["mtnorm", "--avg", "j0=1", "--factor", "0"],
    ["mtnorm", "--avg", "j0=1", "--factor", "-2"],
    ["mtnorm", "--avg", "j0=1", "--excluded", "0"],
    ["mtnorm", "--avg", "j0=1", "--excluded", "3"],
    ["hiprobe", "--length", "99"],
    ["hiprobe", "--cases", "0"],
    ["verify", "lowerest", "--cases", "-3"],
    ["verify", "lowerest", "--cases", "0"],
    ["verify", "biorthogonality", "--stage", "0"],
    ["gen", "--stage", "-1"],
    ["norm", "--stage", "0", "{point}"],
    ["forge", "--stage", "0", "{empty_spec}"],
    ["export", "--stage", "0"],
    ["verify", "lowerest", "--net", "bogus"],
    ["verify", "lowerest", "--stage", "3"],
    ["verify", "biorthogonality", "--cases", "5"],
    ["verify", "averages", "--cases", "0"],
    ["forge", "--stage", "2", "{spec_lengths}"],
    ["forge", "--stage", "2", "{spec_decreasing}"],
    ["forge", "--stage", "2", "{spec_j}"],
    ["forge", "--stage", "2", "{spec_no_targets}"],
    ["forge", "--stage", "2", "{spec_not_pair}"],
    ["forge", "--stage", "2", "{spec_empty_chain}"],
    ["mtnorm", "--point", "{repeated}"],
    ["gen", "--net", "dyadic:0", "--stage", "3"],
    ["norm", "--stage", "3", "{float_index}"],
    ["norm", "--stage", "3", "{float_coef}"],
    ["norm", "--stage", "3", "{bool_coef}"],
    ["mtnorm", "--point", "{float_coef}"],
    ["forge", "--stage", "2", "{spec_float}"],
    ["gen", "--stage", "2", "--out", "{unwritable}"],
    ["gen", "--stage", "2", "--format", "csv", "--out", "{unwritable}"],
    ["export", "--stage", "2", "--out", "{unwritable}"],
    ["verify", "mt-oracle", "--cases", "1", "--out", "{unwritable}"],
    ["hiprobe", "--cases", "1", "--length", "1", "--out", "{unwritable}"],
    ["gen", "--cap", "-5"],
    ["gen", "--cap", "0"],
    ["export", "--cap", "0"],
    ["norm", "--cap", "0", "{point}"],
    ["verify", "biorthogonality", "--cap", "0"],
    ["verify", "treelike", "--cap", "-1"],
    # JSON true is no integer, wherever an integer belongs
    ["norm", "--stage", "3", "{bool_index}"],
    ["mtnorm", "--point", "{bool_index}"],
    ["forge", "--stage", "3", "{spec_bool_j}"],
    ["forge", "--stage", "3", "{spec_bool_cut}"],
    ["forge", "--stage", "3", "{spec_bool_payload_id}"],
    ["forge", "--stage", "3", "{spec_bool_j0}"],
    ["forge", "--stage", "3", "{spec_bool_target_cut}"],
    ["forge", "--stage", "3", "{spec_bool_target}"],
    # --avg names its key, and numbers are spelled in ASCII digits
    ["mtnorm", "--avg", "k=1"],
    ["mtnorm", "--avg", "=1"],
    ["mtnorm", "--avg", "j0=\uff11"],
    ["gen", "--net", "dyadic:\uff11", "--stage", "2"],
    # a payload id is given once, as a point file's index is
    ["forge", "--stage", "1", "{spec_repeated_id}"],
    ["forge", "--stage", "1", "{spec_cancelling_id}"],
    ["norm", "--stage", "3", "{repeated}"],
    # a payload is never empty, also when its one entry is 0
    ["forge", "--stage", "1", "{spec_empty_payload}"],
    ["forge", "--stage", "1", "{spec_zero_payload}"],
])
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    unit = '[[0, "1/1"]]'
    files = {"zero_point": '[[1, "1/0"]]', "bad_json": "{",
             "no_n": '{"m": [4, 16]}', "point": '[[1, "1/1"]]',
             "empty_spec": "{}",
             "spec_lengths": '{"even": [{"j": 1, "cuts": [7, 8], '
                             '"payloads": [%s]}]}' % unit,
             "spec_decreasing": '{"even": [{"j": 1, "cuts": [8, 7], '
                                '"payloads": [%s, %s]}]}' % (unit, unit),
             "spec_j": '{"even": [{"j": "a", "cuts": [7], '
                       '"payloads": [%s]}]}' % unit,
             "spec_no_targets": '{"odd": [{"j0": 1, "targets": []}]}',
             "spec_not_pair": '{"odd": [{"j0": 1, "targets": [[7]]}]}',
             "spec_empty_chain": '{"even": [{"j": 1, "cuts": [], '
                                 '"payloads": []}]}',
             "repeated": '[[1, "1/2"], [1, "1/3"]]',
             # a float is no index, and no exact coefficient
             "float_index": '[[1.5, "1/2"]]', "float_coef": '[[1, 0.1]]',
             "bool_coef": '[[1, true]]',
             "spec_float": '{"even": [{"j": 1, "cuts": [7], '
                           '"payloads": [[[0, 0.5]]]}]}',
             "bool_index": '[[true, "1/1"]]',
             "spec_bool_j": '{"even": [{"j": true, "cuts": [7], '
                            '"payloads": [%s]}]}' % unit,
             "spec_bool_cut": '{"even": [{"j": 1, "cuts": [true], '
                              '"payloads": [%s]}]}' % unit,
             "spec_bool_payload_id": '{"even": [{"j": 1, "cuts": [7], '
                                     '"payloads": [[[true, "1/1"]]]}]}',
             "spec_bool_j0": '{"odd": [{"j0": true, "targets": [[9, 2]]}]}',
             "spec_bool_target_cut": '{"odd": [{"j0": 1, '
                                     '"targets": [[true, 2]]}]}',
             "spec_bool_target": '{"odd": [{"j0": 1, '
                                 '"targets": [[9, true]]}]}',
             "spec_repeated_id": '{"even": [{"j": 1, "cuts": [7], '
                                 '"payloads": [[[0, "1/2"], [0, "1/2"]]]}]}',
             "spec_cancelling_id": '{"even": [{"j": 1, "cuts": [7], '
                                   '"payloads": [[[0, "1/2"], '
                                   '[0, "-1/2"]]]}]}',
             "spec_empty_payload": '{"even": [{"j": 1, "cuts": [7], '
                                   '"payloads": [[]]}]}',
             "spec_zero_payload": '{"even": [{"j": 1, "cuts": [7], '
                                  '"payloads": [[[0, "0"]]]}]}'}
    paths = {"missing": str(tmp_path / "missing.json"),
             "unwritable": str(tmp_path / "no-such-dir" / "out.json")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InputError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, error", [
    (["gen", "--net", "dyadic:4", "--stage", "4"], "NetTooLarge"),
    (["gen", "--stage", "5", "--cap", "100"], "CombinatorialBlowup"),
])
def test_generation_caps_exit_2_with_one_line(argv, error, capsys):
    """The net cap and the stage cap stop generation with a named error
    and no table."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: %s: " % error)


def test_hiprobe_stdout_is_pinned(capsys):
    """`hiprobe` prints one line per case, read off its certificates;
    the lines of two cases at length 5 are pinned byte for byte."""
    assert main(["hiprobe", "--cases", "2", "--length", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9cef56243497621c9304bd31005ecec29c46a2b0b04a70fcc633f5c103ea1924")


def test_hiprobe_long_tower(capsys):
    """A length-6 chain nests the c*/prefix memos deeper than Python's
    recursion limit; lengths 7 and 8 outgrow the probe's schedule and
    are rejected before any forging."""
    assert main(["hiprobe", "--cases", "1", "--length", "6"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["case"] == 0 and row["strict"]
    for length in ("7", "8"):
        assert main(["hiprobe", "--cases", "1", "--length", length]) == 2
        assert capsys.readouterr().err == (
            "error: InputError: probe length %s not in 1..6\n" % length)


@pytest.mark.parametrize("size, limit", [(65, 1), (66, 2), (221, 2),
                                         (222, 3)])
def test_probe_length_limit_is_tight(size, limit):
    """Around the schedule sizes where the derived limit steps up, a
    chain of the limit forges from every pilot rank and one more link
    outgrows the schedule from the highest."""
    sched = slow_toy_schedule(size)
    assert probe_length_limit(sched) == limit
    for pilot in range(PILOT_RANKS[0], PILOT_RANKS[1] + 1):
        assert len(forge_probe_chain(sched, pilot, limit).xs) == limit
    with pytest.raises(SearchExhausted):
        forge_probe_chain(sched, PILOT_RANKS[1], limit + 1)


def forge_probe_chain(sched, pilot, length):
    """The dependent sequence of one HI-probe case, pilot rank given."""
    engine = Engine(forge_arena(sched))
    registry = engine.registry
    forge_even(registry, 1, [pilot], [Func.unit(registry.base())])
    Y, Z = (CarrierSource(engine, companions=False)
            for _ in range(2))
    return make_dependent_sequence(engine, 1, [Y, Z], eps=1, C=45,
                                   length=length, blocks_per_pair="weight")


@pytest.mark.parametrize("suite, values", [
    ("biorthogonality", {"elements": 7953, "defects": 0}),
    # both forms of the identity for every element but Base
    ("eval-analysis", {"checked": 2 * 7952, "mismatches": 0}),
    ("projections", {"basis_constant": "1/1", "max_interval_rowsum": "5/4",
                     "max_tail_rowsum": "5/4", "max_dstar_l1": "5/4"}),
])
def test_verify_stage_8(suite, values, tmp_path):
    """Stage 8 of the default schedule (7953 elements) verifies."""
    out = tmp_path / "ledger.jsonl"
    assert main(["verify", suite, "--stage", "8", "--out", str(out)]) == 0
    (cert,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert cert["verdict"] == "verified" and cert["values"] == values


@pytest.mark.parametrize("suite, digest", [
    ("biorthogonality",
     "1ff33d798c5055edda89559c2154e8f2fa28c9905fc9fda838855a4b5dec31eb"),
    ("eval-analysis",
     "33a4b8c7a56df5f23171f2df51bf4354ab29b12eb8aa88cc886c319875ed7cef"),
    # basis constant 1157/1024, d* ell_1 bound 2181/1024
    ("projections",
     "cbe9f12d8809ca5d6dfca37cdf48611eca34619a5c754f2af24f7450c865a38a"),
])
def test_verify_xk_stage_5_digest(suite, digest, tmp_path):
    """Stage 5 of the XK schedule (4,16),(6,2): 1,305 elements, 1,056 of
    them Type2 links, so c* runs the recursion through a predecessor;
    each ledger is pinned byte for byte."""
    sched = write_schedule(tmp_path, (4, 16), (6, 2))
    out = tmp_path / "ledger.jsonl"
    assert main(["verify", suite, "--schedule", sched, "--stage", "5",
                 "--cap", "200000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_averages_keeps_each_verdict(tmp_path, capsys):
    """One certificate per check of each case: the RIS checks and the
    eps = 1 plain-average lower values are decided, every estimate whose
    prerequisites fail at toy scale stays reported."""
    out = tmp_path / "ledger.jsonl"
    assert main(["verify", "averages", "--cases", "4",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert summary["counts"] == {"verified": 6, "reported": 65,
                                 "violated": 0}
    assert {row["claim_id"] for row in rows if row["verdict"] == "verified"} \
        == {"averages-%d-ris" % c for c in range(4)} \
        | {"averages-0-plain-lower", "averages-2-plain-lower"}


def test_verify_averages_failing_ris_is_violated(tmp_path, monkeypatch):
    """A case whose blocks fail the RIS check certifies that Check as
    violated (exit 1) and makes no average rows."""
    def failing_ris(*args):
        return Check(VIOLATED, dict(check_ris(*args).values))
    monkeypatch.setattr(cli, "check_ris", failing_ris)
    out = tmp_path / "ledger.jsonl"
    assert main(["verify", "averages", "--cases", "2",
                 "--out", str(out)]) == 1
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert {row["claim_id"]: row["verdict"] for row in rows} == {
        "averages-0-alternating-sums": "reported",
        "averages-0-plain-lower": "verified",
        "averages-0-alternating-norm": "reported",
        "averages-0-ris": "violated",
        "averages-1-plain-norm": "reported",
        "averages-1-ris": "violated"}


def test_python_dash_m_runs_the_command():
    """`python -m bdspace` is the `bdspace` command, also uninstalled."""
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "bdspace", *argv],
                              env=env, capture_output=True, text=True)
    bad = run("gen", "--stage", "0")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: InputError: ")
    good = run("schedule")
    assert good.returncode == 0
    assert json.loads(good.stdout)["mode"] == "toy"
