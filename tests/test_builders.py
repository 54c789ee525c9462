"""Recognizer constructions: table fidelity, the published-table variants,
and language correctness at small scale."""

import pathlib

import pytest

from itpda import grammar as gr
from itpda import machine as mc
from itpda import store as st
from itpda.builders import (Variant, ball_automaton, fibonacci_automaton,
                            sector_automaton, suggested_store_bound)
from itpda.cli import CHECKED_FAMILIES
from itpda.contour import ContourSpec, ball_contour, sector_contour
from itpda.machine import ACCEPTED, Configuration, Pop, Push, SearchBounds

DATA = pathlib.Path(__file__).parent / "data"


def tset(automaton):
    return {(t.state, t.letter, t.pattern, t.target, t.action)
            for t in automaton.transitions}


def fib_numbers(count):
    f = [1, 1]
    while len(f) < count:
        f.append(f[-1] + f[-2])
    return f


# --- Fibonacci automaton fidelity ---------------------------------------------

FIB_TABLE = {
    ("q0", None, ("Z",), "q0", Push(2, ("F",))),
    ("q0", None, ("Z",), "q0", Push(1, ("X2",))),
    ("q0", None, ("X1", "F"), "q1", Pop(2)),
    ("q0", None, ("X2", "F"), "q2", Pop(2)),
    ("q0", "a", ("X1",), "q0", Pop(1)),
    ("q0", "a", ("X2",), "q0", Pop(1)),
    ("q1", None, ("X1", "F"), "q0", Push(1, ("X1", "X2"))),
    ("q2", None, ("X2", "F"), "q0", Push(1, ("X1",))),
    ("q1", None, ("X1",), "q0", Push(1, ("X1", "X2"))),
    ("q2", None, ("X2",), "q0", Push(1, ("X1",))),
}


def test_fibonacci_corrected_matches_table():
    expected = FIB_TABLE | {
        ("q0", None, ("Z", "F"), "q0", Push(2, ("F",))),
        ("q0", None, ("Z", "F"), "q0", Push(1, ("X2",))),
    }
    assert tset(fibonacci_automaton()) == expected


def test_fibonacci_as_printed_differs_only_in_guess_loop():
    expected = FIB_TABLE | {
        ("q0", None, ("Z", "F"), "q0", Push(2, ("F", "F"))),
        ("q0", None, ("Z", "F"), "q0", Push(1, ("X2",))),
    }
    assert tset(fibonacci_automaton(Variant.AS_PRINTED)) == expected


def test_both_variants_accept_a1():
    assert mc.accepts(fibonacci_automaton(), "a")
    assert mc.accepts(fibonacci_automaton(Variant.AS_PRINTED), "a")


def test_as_printed_rejects_a2():
    assert mc.accepts(fibonacci_automaton(Variant.AS_PRINTED), "aa").status \
        != ACCEPTED


def test_as_printed_reaches_odd_heights_only():
    ap = fibonacci_automaton(Variant.AS_PRINTED)
    f = fib_numbers(10)
    accepted = {n for n in range(1, 35) if mc.accepts(ap, "a" * n)}
    assert accepted == {f[k] for k in (0, 1, 3, 5, 7)} & set(range(1, 35))


# --- ball automaton ---------------------------------------------------------------

def test_ball_fib_sigma5_matches_golden_file():
    built = ball_automaton(gr.fibonacci(), "W", 5)
    golden = mc.parse_automaton((DATA / "ball_fib_sigma5.txt").read_text())
    assert built == golden
    assert mc.render_automaton(built) == (DATA / "ball_fib_sigma5.txt").read_text()


def test_ball_accepts_paper_word_and_rejects_flips():
    a = ball_automaton(gr.fibonacci(), "W", 5)
    word = "bwbwwbww" * 5
    assert mc.accepts(a, word)
    for i in range(len(word)):
        flipped = word[:i] + ("b" if word[i] == "w" else "w") + word[i + 1:]
        assert mc.accepts(a, flipped).status != ACCEPTED


def test_ball_dodecahedral_level1():
    a = ball_automaton(gr.dodecahedral(), "O", 8)
    assert mc.accepts(a, tuple("oooooccct") * 8)


def test_ball_rejects_bad_sigma_argument():
    with pytest.raises(ValueError):
        ball_automaton(gr.fibonacci(), "W", 0)
    with pytest.raises(gr.GrammarError):
        ball_automaton(gr.fibonacci(), "Q", 5)


def test_as_printed_only_for_fibonacci():
    with pytest.raises(ValueError):
        ball_automaton(gr.dodecahedral(), "O", 8, Variant.AS_PRINTED)
    with pytest.raises(ValueError):
        sector_automaton(gr.polygonal(6), "W", Variant.AS_PRINTED)


def test_reserved_symbols_namespaced():
    weird = gr.SubstitutionSystem(
        "weird", ("Z", "F"), {"Z": ("Z", "F"), "F": ("Z",)},
        {"Z": "z", "F": "f"}, (2,))
    a = ball_automaton(weird, "Z", 2)
    assert "@Z" in a.store_alphabet and "@F" in a.store_alphabet
    assert mc.accepts(a, "zz")  # level 0: root read twice


# --- Lemma 2: level words empty a flagged root ---------------------------------------

@pytest.mark.parametrize("root", ["W", "B"])
def test_level_word_reachability(root):
    fib = gr.fibonacci()
    a = ball_automaton(fib, root, 5)
    for level in range(11):
        word = gr.read_word(fib, gr.level_word(fib, root, level))
        start = Configuration("q0", 0, st.single(root, 2, ["F"] * level))
        goal = Configuration("q0", len(word), st.empty(2))
        bounds = SearchBounds(suggested_store_bound(fib, 1, level), 10 ** 7)
        assert mc.reachable(a, start, goal, word, bounds).status == ACCEPTED


# --- sector automaton ---------------------------------------------------------------------

def test_sector_accepts_paper_strings():
    fib = gr.fibonacci()
    assert mc.accepts(sector_automaton(fib, "W"), "rssbwbwwbwwss")
    assert mc.accepts(sector_automaton(fib, "B"), "rssbwbwwss")


def test_sector_rejects_unbalanced_sides():
    a = sector_automaton(gr.fibonacci(), "W")
    assert mc.accepts(a, "rsbwbwwbwwss").status != ACCEPTED
    assert mc.accepts(a, "rssbwbwwbwws").status != ACCEPTED


def test_sector_excludes_level0():
    a = sector_automaton(gr.fibonacci(), "W")
    assert mc.accepts(a, "rw").status != ACCEPTED


def test_sector_language_small():
    fib = gr.fibonacci()
    spec = ContourSpec(fib, "W", kind="sector")
    lang = mc.enumerate_language(sector_automaton(fib, "W"), 14)
    assert lang == {sector_contour(spec, 1), sector_contour(spec, 2)}


def test_unsided_sector_language_small():
    dod = gr.dodecahedral()
    a = sector_automaton(dod, "O")
    lang = mc.enumerate_language(a, 10)
    assert lang == {tuple("oooooccct")}  # level 1 only; level 0 excluded


def test_unsided_sector_accepts_level2():
    dod = gr.dodecahedral()
    spec = ContourSpec(dod, "O", kind="sector")
    assert mc.accepts(sector_automaton(dod, "O"), sector_contour(spec, 2))


def test_sector_as_printed_is_the_published_table():
    a = sector_automaton(gr.fibonacci(), "W", Variant.AS_PRINTED)
    assert ("q1", None, ("W_r", "F"), "q0", Push(1, ("B_b", "W", "W_r"))) \
        in tset(a)
    # The published table dead-ends before finishing the bottom level; it
    # does not accept the very string its figure displays.
    assert mc.accepts(a, "rssbwbwwbwwss").status != ACCEPTED


def test_sector_as_printed_white_root_only():
    with pytest.raises(ValueError):
        sector_automaton(gr.fibonacci(), "B", Variant.AS_PRINTED)


# --- suggested bound sanity --------------------------------------------------------------------

@pytest.mark.parametrize("system,root,sigma,kind,levels", [
    (gr.fibonacci(), "W", 5, "ball", range(0, 7)),
    (gr.polygonal(6), "W", 8, "ball", range(0, 6)),
    (gr.dodecahedral(), "O", 8, "ball", range(0, 4)),
    (gr.cell120(), "9", 1, "sector", range(1, 3)),
])
def test_suggested_bound_admits_accepting_runs(system, root, sigma, kind, levels):
    if kind == "ball":
        a = ball_automaton(system, root, sigma)
        spec = ContourSpec(system, root, sigma=sigma, kind="ball")
    else:
        a = sector_automaton(system, root)
        spec = ContourSpec(system, root, kind="sector")
    for level in levels:
        word = ball_contour(spec, level) if kind == "ball" \
            else sector_contour(spec, level)
        bounds = SearchBounds(suggested_store_bound(system, sigma, level), 10 ** 7)
        assert mc.accepts(a, word, bounds, memoize=False).status == ACCEPTED


# The families and levels of ``scripts/check_recognizers.py --quick``, and
# the cell120 sector word at level 3, the largest the acceptance suite reads.
QUICK_CHECK = [
    (kind, make, root, sigma,
     range(1, 4) if (kind, make) == ("sector", gr.cell120) else levels[:3])
    for kind, make, root, sigma, levels in CHECKED_FAMILIES]


def test_suggested_bound_covers_the_smallest_accepting_bound():
    # Acceptance is monotone in the store bound, so bisection finds the
    # smallest bound that admits an accepting run, up to twice the
    # suggested one; the suggested bound must reach it on every family and
    # level.  The largest share seen is 691 of 1,192, on the cell120
    # sector word at level 3.
    for kind, make, root, sigma, levels in QUICK_CHECK:
        system = make()
        automaton = (ball_automaton(system, root, sigma) if kind == "ball"
                     else sector_automaton(system, root))
        spec = ContourSpec(system, root, sigma=sigma, kind=kind)
        for level in levels:
            word = (ball_contour(spec, level) if kind == "ball"
                    else sector_contour(spec, level))
            suggested = suggested_store_bound(system, sigma, level)
            rejects, accepts = -1, 2 * suggested
            while accepts - rejects > 1:
                mid = (rejects + accepts) // 2
                if mc.accepts(automaton, word, SearchBounds(mid, 10 ** 7),
                              memoize=False):
                    accepts = mid
                else:
                    rejects = mid
            assert accepts <= suggested, (system.name, kind, level,
                                          accepts, suggested)
