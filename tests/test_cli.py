"""Command-line surface: outputs, exit codes, and the check report."""

import json

import pytest

from itpda import cli
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
                            "rejected", "millis"}
        assert row["rejected"] == row["mutations"] == 3


def test_check_exhaustive(capsys):
    code, out, _ = run(capsys, "check", "--kind", "sector", "--system", "fib",
                       "--root", "W", "--levels", "1..2", "--mutations", "2",
                       "--exhaustive-len", "14")
    assert code == 0 and "exhaustive sweep <= 14: ok" in out


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


def test_check_bad_level_range(capsys):
    code, _, err = run(capsys, "check", "--kind", "ball", "--system", "fib",
                       "--root", "W", "--levels", "3..1")
    assert code >= 3


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
