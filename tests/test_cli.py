"""Command-line surface: outputs, exit codes, and the check report."""

import json
import threading
from dataclasses import replace

import pytest

from itpda import cli
from itpda import grammar as gr
from itpda import machine as mc
from itpda.builders import fibonacci_automaton


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- word ----------------------------------------------------------------------

def test_word_sector_paper_string(capsys):
    code, out, _ = run(capsys, "word", "--system", "fib", "--root", "W",
                       "--kind", "sector", "--level", "2")
    assert code == 0 and out.strip() == "rssbwbwwbwwss"


def test_word_level_zero(capsys):
    code, out, _ = run(capsys, "word", "--system", "fib", "--root", "W",
                       "--kind", "level", "--level", "0")
    assert code == 0 and out.strip() == "w"


def test_word_dodeca_ball(capsys):
    code, out, _ = run(capsys, "word", "--system", "dodeca", "--root", "O",
                       "--kind", "ball", "--sigma", "8", "--level", "1")
    assert code == 0 and out.strip() == "oooooccct" * 8


def test_word_sector_level0_is_error(capsys):
    code, _, err = run(capsys, "word", "--system", "fib", "--root", "W",
                       "--kind", "sector", "--level", "0")
    assert code >= 3 and "error" in err


def test_word_unknown_system(capsys):
    code, _, err = run(capsys, "word", "--system", "octagrid", "--root", "W",
                       "--level", "1")
    assert code >= 3 and "unknown system" in err


def test_word_out_file(tmp_path, capsys):
    target = tmp_path / "w.txt"
    code, _, _ = run(capsys, "word", "--system", "fib", "--root", "W",
                     "--kind", "level", "--level", "2", "--out", str(target))
    assert code == 0 and target.read_text() == "bwbwwbww\n"


def test_word_option_its_kind_does_not_read_exits_3(capsys):
    # Only ball words read --sigma.
    for kind in ("sector", "level"):
        code, out, err = run(capsys, "word", "--system", "fib", "--root", "W",
                             "--kind", kind, "--sigma", "2", "--level", "2")
        assert (code, out) == (3, "")
        assert f"--kind {kind} does not read --sigma" in err


# --- count ----------------------------------------------------------------------

def test_count_fib_level3(capsys):
    code, out, _ = run(capsys, "count", "--system", "fib", "--root", "W",
                       "--level", "3")
    assert code == 0
    assert "total: 21" in out
    assert any(line.startswith("B: ") for line in out.splitlines())


def test_count_cell120(capsys):
    code, out, _ = run(capsys, "count", "--system", "cell120", "--root", "9",
                       "--level", "1")
    assert code == 0 and "total: 116" in out


def test_count_trivial(capsys):
    code, out, _ = run(capsys, "count", "--system", "fib", "--root", "B",
                       "--level", "0")
    assert code == 0 and "total: 1" in out


# --- build ------------------------------------------------------------------------

def test_build_round_trips(tmp_path, capsys):
    target = tmp_path / "fib.ipda"
    code, _, _ = run(capsys, "build", "--kind", "fib", "--out", str(target))
    assert code == 0
    assert mc.parse_automaton(target.read_text()) == fibonacci_automaton()


def test_build_unknown_system(capsys):
    code, _, err = run(capsys, "build", "--kind", "ball", "--system", "nope",
                       "--root", "W")
    assert code >= 3


def test_build_option_its_kind_does_not_read_exits_3(tmp_path, capsys):
    # fib reads none of --system, --root and --sigma; sector reads no
    # --sigma.  Nothing is written.
    target = tmp_path / "out.ipda"
    for kind, option, value in (("fib", "--system", "nonsense"),
                                ("fib", "--root", "Q"), ("fib", "--sigma", "99"),
                                ("sector", "--sigma", "2")):
        code, _, err = run(capsys, "build", "--kind", kind, option, value,
                           "--out", str(target))
        assert code == 3 and f"--kind {kind} does not read {option}" in err
        assert not target.exists()


@pytest.mark.parametrize("name", ["poly7", "polygonal7", "poly(7)",
                                  "Polygonal(7)"])
def test_get_system_polygonal_forms(name):
    assert cli.get_system(name).name == "polygonal(7)"


@pytest.mark.parametrize("name", ["polyogan7", "poly(((7", "poly(7",
                                  "poly7)", "polygon7", "poly", "poly-7"])
def test_get_system_rejects_malformed_names(name):
    with pytest.raises(cli.CliError):
        cli.get_system(name)


# --- run ---------------------------------------------------------------------------

@pytest.fixture()
def fib_file(tmp_path):
    path = tmp_path / "fib.ipda"
    path.write_text(mc.render_automaton(fibonacci_automaton()))
    return str(path)


def test_run_accepts(fib_file, capsys):
    code, out, _ = run(capsys, "run", fib_file, "--word", "aaa")
    assert code == 0 and out.startswith("accepted")


def test_run_rejects(fib_file, capsys):
    code, out, _ = run(capsys, "run", fib_file, "--word", "aaaa")
    assert code == 1 and out.startswith("rejected")


def test_run_undeclared_letter(fib_file, capsys):
    code, _, err = run(capsys, "run", fib_file, "--word", "ba")
    assert code >= 3


@pytest.mark.filterwarnings("ignore:sigma=1 is not a tessellation")
def test_run_one_letter_word_of_a_longer_letter(tmp_path, capsys):
    # The level-0 ball word of cell120 root 6a is the one letter 6a, which
    # itpda word writes as "6a".
    ball, wf = tmp_path / "b.ipda", tmp_path / "w.txt"
    code, _, _ = run(capsys, "build", "--kind", "ball", "--system", "cell120",
                     "--root", "6a", "--sigma", "1", "--out", str(ball))
    assert code == 0
    code, _, _ = run(capsys, "word", "--system", "cell120", "--root", "6a",
                     "--kind", "ball", "--sigma", "1", "--level", "0",
                     "--out", str(wf))
    assert code == 0 and wf.read_text() == "6a\n"
    code, out, _ = run(capsys, "run", str(ball), str(wf))
    assert code == 0 and out.startswith("accepted")
    code, out, _ = run(capsys, "run", str(ball), "--word", "6b")
    assert code == 1 and out.startswith("rejected")
    code, _, err = run(capsys, "run", str(ball), "--word", "6")
    assert code == 3 and "input letter '6' not in alphabet" in err


def test_run_inconclusive(fib_file, capsys):
    code, out, _ = run(capsys, "run", fib_file, "--word", "aaa",
                       "--max-configs", "2")
    assert code == 2 and out.startswith("inconclusive")


def test_run_word_file_and_trace(fib_file, tmp_path, capsys):
    wf = tmp_path / "word.txt"
    wf.write_text("aa\n")
    code, out, _ = run(capsys, "run", fib_file, str(wf), "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(q0, 0 read, Z)"
    assert any(line == "(q0, 2 read, e)" for line in lines)


def test_run_missing_file(capsys):
    code, _, err = run(capsys, "run", "/nonexistent.ipda", "--word", "a")
    assert code >= 3


def test_directories_as_paths_exit_3(fib_file, tmp_path, capsys):
    # An unreadable path is a usage error, not a rejection (exit 1).
    for argv in (("run", str(tmp_path)),
                 ("run", fib_file, str(tmp_path)),
                 ("word", "--system", "fib", "--root", "W", "--level", "2",
                  "--out", str(tmp_path))):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "error" in err, argv


@pytest.mark.parametrize("bound", [("--max-store", "-1"),
                                   ("--max-configs", "0"),
                                   ("--max-configs", "-5")])
def test_run_bad_bounds_exit_3(fib_file, bound, capsys):
    code, out, err = run(capsys, "run", fib_file, "--word", "aaa", *bound)
    assert code == 3 and out == "" and "error" in err


def test_run_word_and_word_file_together_exit_3(fib_file, tmp_path, capsys):
    wf = tmp_path / "word.txt"
    wf.write_text("aa\n")
    code, out, err = run(capsys, "run", fib_file, str(wf), "--word", "aaa")
    assert code == 3 and out == "" and "error" in err


def test_run_malformed_file_exits_3_at_its_line(fib_file, tmp_path, capsys):
    lines = open(fib_file).read().splitlines()
    assert lines[5].startswith("store: Z ")
    lines[5] += " e"  # the store's empty mark is no symbol
    bad = tmp_path / "bad.ipda"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "run", str(bad), "--word", "aaa")
    assert code == 3 and out == "" and "line 6:" in err


# --- check ---------------------------------------------------------------------------

def test_check_ball_passes(capsys):
    code, out, _ = run(capsys, "check", "--kind", "ball", "--system", "fib",
                       "--root", "W", "--sigma", "5", "--levels", "0..3",
                       "--mutations", "5")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_check_as_printed_fails_at_level2(capsys):
    code, out, _ = run(capsys, "check", "--kind", "ball", "--system", "fib",
                       "--root", "W", "--sigma", "5", "--levels", "0..3",
                       "--mutations", "0", "--variant", "as-printed", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    by_level = {row["level"]: row for row in doc["rows"]}
    assert by_level[0]["positive"] == "accepted"
    assert by_level[1]["positive"] == "accepted"
    assert by_level[2]["positive"] != "accepted"


def test_check_json_fields(capsys):
    code, out, _ = run(capsys, "check", "--kind", "sector", "--system", "fib",
                       "--root", "B", "--levels", "1..2", "--mutations", "3",
                       "--seed", "9", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    for row in doc["rows"]:
        assert set(row) == {"level", "len", "positive", "mutations",
                            "rejected", "inconclusive", "exact", "millis"}
        assert row["rejected"] == row["mutations"] == 3
        assert row["exact"] == row["mutations"] + 1


def test_check_out_of_budget_verdicts_exit_2(capsys):
    # Every verdict runs out of budget; none is wrong.
    code, out, _ = run(capsys, "check", "--kind", "sector", "--system", "fib",
                       "--root", "W", "--levels", "1..2", "--mutations", "1",
                       "--max-configs", "1", "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["pass"] is False
    for row in doc["rows"]:
        assert row["positive"] == "inconclusive"
        assert (row["rejected"], row["inconclusive"]) == (0, 2)


def test_check_out_of_budget_sweep_exits_2(capsys):
    # The rows pass within the budget; the language enumeration does not.
    # The level-1 positive counts 15 configurations and its mutant 12; the
    # sweep to 60 needs 98, so a budget of 50 lies between the two.
    args = ("check", "--kind", "sector", "--system", "fib", "--root", "W",
            "--levels", "1..1", "--mutations", "1", "--exhaustive-len", "60",
            "--max-configs", "50")
    code, out, _ = run(capsys, *args)
    assert code == 2
    assert "exhaustive sweep <= 60: inconclusive" in out
    assert out.strip().endswith("INCONCLUSIVE")
    code, out, _ = run(capsys, *args, "--json")
    doc = json.loads(out)
    assert code == 2 and doc["pass"] is False
    assert doc["exhaustive_ok"] is None
    assert [row["positive"] for row in doc["rows"]] == ["accepted"]


def test_check_exhaustive(capsys):
    code, out, _ = run(capsys, "check", "--kind", "sector", "--system", "fib",
                       "--root", "W", "--levels", "1..2", "--mutations", "2",
                       "--exhaustive-len", "14")
    assert code == 0 and "exhaustive sweep <= 14: ok" in out


def test_exhaustive_sweep_ends_where_contour_lengths_stop_growing():
    # A -> A: every level word is A, so every contour is a a.
    unit = gr.SubstitutionSystem("unit", ("A",), {"A": ("A",)}, {"A": "a"}, (2,))
    reports = []
    worker = threading.Thread(
        target=lambda: reports.append(cli.run_check(
            "ball", unit, "A", 2, range(0, 2), 1, 1, exhaustive_len=6)),
        daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "the exhaustive sweep did not end"
    assert reports[0].exhaustive_ok is True


def test_check_deterministic(capsys):
    args = ("check", "--kind", "ball", "--system", "fib", "--root", "W",
            "--sigma", "5", "--levels", "0..2", "--mutations", "4",
            "--seed", "3", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    for row in d1["rows"] + d2["rows"]:
        row.pop("millis")
    assert d1 == d2


def test_run_check_checks_the_system_it_is_given():
    # Both systems have the rules of poly6 under names of their own; one
    # names no built-in system and the other a built-in one with other
    # rules.  Each is checked against the automaton built from its rules.
    poly6 = gr.polygonal(6)
    for name in ("tri", "fibonacci"):
        system = replace(poly6, name=name)
        for kind, sigma in (("ball", 6), ("sector", 1)):
            report = cli.run_check(kind, system, "W", sigma, range(1, 4), 3, 1)
            assert report.ok, (name, kind, report.as_text())
            assert [row.positive for row in report.rows] == [mc.ACCEPTED] * 3


def test_every_verdict_of_the_quick_check_is_exact():
    # Every level scripts/check_recognizers.py checks, with the mutants of
    # its quick run (--quick --mutations 10, seed 0), which CI leaves to
    # this test.  The guess-loop cut ends every guess loop before the store
    # bound, so no verdict rests on it, also where default_bounds is below
    # builders.suggested_store_bound (the fib sigma 5, poly6 and cell120
    # balls at level 0, the fib and dodeca sectors at level 1).
    for kind, make, root, sigma, levels in cli.CHECKED_FAMILIES:
        report = cli.run_check(kind, make(), root, sigma, levels, 10, 0)
        assert report.ok, report.as_text()
        assert [row.exact for row in report.rows] == [11] * len(report.rows)


def test_check_max_store_bounds_every_search(capsys):
    # The fib sector W level-3 word has 28 letters; its accepting run
    # needs more than 12 store symbols and fits in 20.  The mutants are
    # rejected either way, one of them at the store bound of 12.
    args = ("check", "--kind", "sector", "--system", "fib", "--root", "W",
            "--levels", "3..3", "--mutations", "3", "--json")
    rows = []
    for max_store, code in (("12", 1), ("20", 0)):
        got, out, _ = run(capsys, *args, "--max-store", max_store)
        assert got == code
        (row,) = json.loads(out)["rows"]
        rows.append((row["positive"], row["rejected"], row["exact"]))
    assert rows == [(mc.REJECTED, 3, 2), (mc.ACCEPTED, 3, 4)]


def test_check_option_its_kind_does_not_read_exits_3(capsys):
    code, out, err = run(capsys, "check", "--kind", "sector", "--system", "fib",
                         "--root", "W", "--sigma", "5", "--levels", "1..2")
    assert (code, out) == (3, "")
    assert "--kind sector does not read --sigma" in err


def test_check_kind_fib_is_a_usage_error(capsys):
    # fib names an automaton, not a contour kind that check can verify.
    code, out, err = run(capsys, "check", "--kind", "fib", "--system", "fib",
                         "--root", "W", "--levels", "0..1")
    assert (code, out) == (3, "")
    assert "invalid choice: 'fib'" in err


def test_check_bad_level_range(capsys):
    code, _, err = run(capsys, "check", "--kind", "ball", "--system", "fib",
                       "--root", "W", "--levels", "3..1")
    assert code >= 3


@pytest.mark.parametrize("argv,message", [
    (("count", "--system", "poly4", "--root", "W", "--level", "1"),
     "bad polygonal system 'poly4': polygonal systems need p >= 5"),
    (("check", "--kind", "ball", "--system", "fib", "--root", "W",
      "--levels", "1-3"), "bad level range '1-3'; expected A..B"),
])
def test_domain_errors_exit_3_with_their_message(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"itpda: error: {message}\n")


@pytest.mark.parametrize("bad", [("--mutations", "-2"),
                                 ("--exhaustive-len", "-1"),
                                 ("--max-store", "-1"),
                                 ("--max-configs", "0")])
def test_check_bad_arguments_exit_3(bad, capsys):
    code, out, err = run(capsys, "check", "--kind", "ball", "--system", "fib",
                         "--root", "W", "--sigma", "5", "--levels", "0..1",
                         *bad)
    assert code == 3 and "PASS" not in out and "error" in err


def test_usage_error_exits_3(capsys):
    code, _, err = run(capsys, "word", "--system", "fib")
    assert code >= 3


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: itpda")
