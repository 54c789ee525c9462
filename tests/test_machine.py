"""Automaton engine: one-step semantics, bounded search, and the file
format."""

import itertools
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hst

from itpda import cli
from itpda import grammar as gr
from itpda import machine as mc
from itpda import store as st
from itpda.builders import (Variant, ball_automaton, fibonacci_automaton,
                            sector_automaton, suggested_store_bound)
from itpda.cli import CHECKED_FAMILIES, build_automaton
from itpda.contour import ContourSpec, contour_word, mutate
from itpda.machine import (ACCEPTED, INCONCLUSIVE, REJECTED, Automaton,
                           Configuration, Pop, Push, SearchBounds, Transition)
from witness import CountingStore, assert_witness, flag_table, solved, yields


def T(state, letter, pattern, target, action):
    return Transition(state, letter, tuple(pattern), target, action)


@pytest.fixture(scope="module")
def fib():
    return fibonacci_automaton()


# --- step ------------------------------------------------------------------------

def test_step_initial_branches(fib):
    start = fib.initial_configuration()
    got = mc.step(fib, start, "aaa")
    stores = {st.render(c.store) for c, _ in got}
    assert stores == {"Z[F]", "X2"}
    assert all(c.position == 0 for c, _ in got)


def test_step_no_match_is_empty(fib):
    cfg = Configuration("q1", 0, fib.initial_store())  # no q1 Z transition
    assert mc.step(fib, cfg, "a") == set()


def test_step_read_advances_position(fib):
    cfg = Configuration("q0", 0, st.single("X1", 2))
    got = mc.step(fib, cfg, "a")
    assert {(c.state, c.position, st.render(c.store)) for c, _ in got} \
        == {("q0", 1, "e")}


def test_step_exact_pattern_match():
    # A pattern "Z" must not fire on topsym ZF, and vice versa.
    a = Automaton(
        levels=2, states=("q",), initial_state="q",
        input_alphabet=("x", "y"), store_alphabet=("Z", "F"),
        initial_symbol="Z",
        transitions=(
            T("q", "x", ("Z",), "q", Pop(1)),
            T("q", "y", ("Z", "F"), "q", Pop(2)),
        ))
    bare = Configuration("q", 0, st.single("Z", 2))
    flagged = Configuration("q", 0, st.single("Z", 2, ["F"]))
    assert {tid for _, tid in mc.step(a, bare, "x")} == {0}
    assert mc.step(a, bare, "y") == set()
    assert {tid for _, tid in mc.step(a, flagged, "y")} == {1}
    assert mc.step(a, flagged, "x") == set()


def test_step_rejects_undeclared_letters(fib):
    # step checks its word as accepts and reachable do.
    cfg = fib.initial_configuration()
    with pytest.raises(mc.UndeclaredLetterError,
                       match="input letter 'z' not in alphabet"):
        mc.step(fib, cfg, "z")
    with pytest.raises(mc.UndeclaredLetterError, match="input letter 'z'"):
        mc.step(fib, cfg, ("a", "z"))


def test_step_rejects_stores_of_another_level_and_positions_off_the_word(fib):
    # A level-1 X1 would fire the 2-level automaton's transition 6, and
    # position -1 would read the word's last letter.
    x1 = st.single("X1", 2)
    for cfg in (Configuration("q0", 0, st.single("X1", 1)),
                Configuration("q0", 0, st.single("X1", 3, ["F"])),
                Configuration("q0", -1, x1), Configuration("q0", 2, x1)):
        with pytest.raises(mc.MachineError):
            mc.step(fib, cfg, "a")
    assert mc.step(fib, Configuration("q0", 1, x1), "a") == set()


# Undeclared symbols on top, in the top element's flag under a declared F,
# and in the element under the top: stores the automaton cannot build.
UNDECLARED_STORES = [st.single("QQ", 2), st.single("X1", 2, ["F", "QQ"]),
                     st.from_pairs(2, [("X1", st.empty(1)),
                                       ("QQ", st.empty(1))])]


def test_step_rejects_undeclared_states_and_store_symbols(fib):
    # Each would read as a configuration that cannot move, or, with QQ
    # under F, step to X1[QQ].
    configs = [Configuration("nowhere", 0, st.single("X1", 2))]
    configs += [Configuration("q0", 0, store) for store in UNDECLARED_STORES]
    for cfg in configs:
        with pytest.raises(mc.MachineError, match="undeclared"):
            mc.step(fib, cfg, "a")


# --- accepts -----------------------------------------------------------------------

def test_unhashable_tokens_are_undeclared_letters(fib):
    # The search of the first token that is no letter hashes only strs.
    cfg = fib.initial_configuration()
    for call in (lambda w: mc.accepts(fib, w),
                 lambda w: mc.step(fib, cfg, w),
                 lambda w: mc.reachable(fib, cfg, cfg, w)):
        for word, tok in (([["a"]], ["a"]), (iter([["a"]]), ["a"]),
                          (("a", {"a"}), {"a"})):
            with pytest.raises(mc.UndeclaredLetterError) as err:
                call(word)
            assert f"input letter {tok!r} not" in str(err.value)


def test_accepts_fibonacci_lengths(fib):
    assert mc.accepts(fib, "a" * 8)
    assert mc.accepts(fib, "a" * 8).status == ACCEPTED
    assert mc.accepts(fib, "a" * 4).status == REJECTED


def test_accepts_empty_word_nonempty_store_rejected():
    a = Automaton(levels=1, states=("q",), initial_state="q",
                  input_alphabet=("x",), store_alphabet=("Z",),
                  initial_symbol="Z",
                  transitions=(T("q", "x", ("Z",), "q", Pop(1)),))
    assert mc.accepts(a, "").status == REJECTED
    assert mc.accepts(a, "x").status == ACCEPTED


def test_accepts_rejects_undeclared_letters(fib):
    with pytest.raises(mc.UndeclaredLetterError):
        mc.accepts(fib, "ab")
    # The message names the first letter outside the alphabet.
    with pytest.raises(mc.UndeclaredLetterError,
                       match="input letter 'c' not in alphabet of fibonacci"):
        mc.accepts(fib, ("a", "c", "b"))


def _letters(*letters):
    """A 1-level automaton that pops Z on each of ``letters``."""
    return Automaton(levels=1, states=("q",), initial_state="q",
                     input_alphabet=letters, store_alphabet=("Z",),
                     initial_symbol="Z",
                     transitions=tuple(T("q", x, ("Z",), "q", Pop(1))
                                       for x in letters))


@pytest.mark.filterwarnings("ignore:sigma=1 is not a tessellation")
def test_one_part_text_that_is_a_letter_is_read_as_that_letter():
    # format_word writes the one-letter word ("6a",) as "6a".
    cell = gr.cell120()
    ball = ball_automaton(cell, "6a", 1)
    word = contour_word(ContourSpec(cell, "6a", sigma=1, kind="ball"), 0)
    assert word == ("6a",) and gr.format_word(word) == "6a"
    for given in (word, "6a", " 6a\n"):
        assert mc.accepts(ball, given).status == ACCEPTED
    # A run of one-character letters comes first.
    both = _letters("a", "b", "ab")
    assert mc.accepts(both, ("ab",)).status == ACCEPTED
    assert mc.accepts(both, "ab").status == REJECTED  # a, b
    assert mc.accepts(_letters("a", "ab"), "ab").status == ACCEPTED
    # A part that is neither names its first character that is no letter.
    with pytest.raises(mc.UndeclaredLetterError, match="input letter '6'"):
        mc.accepts(ball, "6a9")


def test_coded_word_reads_as_its_letters():
    # Text and tuple give the same letters, positions and counts, whatever
    # the separators; a literal code is no letter.
    a = _letters("x", "yy", "yyx")
    code = a._codes.code
    assert code["x"] == "x" and not {code["yy"], code["yyx"]} & {"x", "y"}
    word = ("yyx", "x", "yy", "x")
    coded = code["yyx"] + "x" + code["yy"] + "x"
    # Longest first, so that a text in format_word's form takes one pass.
    assert a._codes.spaced("yyx x yy x", 4) == coded
    for given in (word, list(word), iter(word), "yyx x yy x", "yyx\tx\n yy  x"):
        assert mc._encode(a, given) == coded
    for bad, tok in ((("x", code["yy"]), code["yy"]),
                     (code["yy"], code["yy"]),
                     ("x " + code["yy"], code["yy"]),
                     (("x", ""), ""), (("yy", ""), ""), ("yyy x", "yyy"),
                     (("x", 1), 1), ("x yyxyy", "yyxyy"), ("xyy x", "xyy"),
                     # Tokens that hold a space, in a joined text of the
                     # right length or not.
                     (("b w",), "b w"), (("x ", ""), "x "), ((" x", "yy"), " x"),
                     (("x", "yy x"), "yy x"), (("x", " "), " ")):
        with pytest.raises(mc.UndeclaredLetterError) as err:
            mc.accepts(a, bad)
        assert f"input letter {tok!r} not" in str(err.value), bad
    single = _letters("a", "b")
    for bad, tok in ((("ab", ""), "ab"), (("", "ab"), ""), ("a b\tc", "c"),
                     (("a", "b "), "b "), (("a b",), "a b"), (("a ", "b"), "a ")):
        with pytest.raises(mc.UndeclaredLetterError) as err:
            mc.accepts(single, bad)
        assert f"input letter {tok!r} not" in str(err.value), bad


def test_inconclusive_when_budget_too_small(fib):
    v = mc.accepts(fib, "a" * 8, SearchBounds(100, 5))
    assert v.status == INCONCLUSIVE


def test_search_bounds_reject_bad_values():
    for store, configs in ((-1, None), (None, 0), (None, -1)):
        with pytest.raises(mc.MachineError):
            SearchBounds(store, configs)
    SearchBounds(0, 1)  # the smallest bounds that are allowed


def test_store_cut_flagged_but_still_rejected(fib):
    v = mc.accepts(fib, "a" * 4)
    assert v.status == REJECTED
    assert v.store_cut  # the guess loop was pruned by the store bound


@pytest.mark.parametrize("n", [4, 100])
def test_yield_cut_flagged_on_heights_too_tall(fib, n):
    # X2[F^h] reads exactly f_h letters, so the least yield cuts every
    # height too tall for a^n and the most yield every height too short.
    for h in range(12):
        x2 = st.single("X2", 2, ["F"] * h)
        least, most = yields(fib, "q0", x2)
        assert (least > n) != (most < n)
    # Each commit is dropped at once: only the guess loop runs, one
    # configuration per height, until the heights are too tall for any
    # commit, which the memo-free search cuts as an exact rejection.
    v = mc.accepts(fib, "a" * n, memoize=False)
    assert (v.status, v.exact, v.yield_cut) == (REJECTED, True, True)
    assert v.configurations == {4: 4, 100: 11}[n]
    # The memoized search walks the loop until the store bound stops it.
    v = mc.accepts(fib, "a" * n)
    assert (v.status, v.exact, v.yield_cut) == (REJECTED, False, True)
    assert v.configurations == mc.default_bounds(n).max_store_symbols
    # a^5 is accepted at height 4, after heights 0-3 were cut as too short;
    # the one configuration off its witness is the push 2 to height 5.
    five = mc.accepts(fib, "a" * 5, trace=True)
    assert five.status == ACCEPTED and five.yield_cut and not five.store_cut
    assert five.configurations == len(five.trace) + 1


# --- least yields --------------------------------------------------------------------

TREE_BALLS = [(gr.fibonacci(), "W", 5), (gr.polygonal(6), "W", 6),
              (gr.dodecahedral(), "O", 8), (gr.polygonal(7), "W", 7),
              (gr.cell120(), "9", 16)]


@pytest.mark.parametrize("system,root,sigma", TREE_BALLS)
def test_most_yield_of_a_tree_root_is_its_level_count(system, root, sigma):
    # A tree element reads its whole level word whatever run removes it,
    # so the two bounds meet.
    ball = ball_automaton(system, root, sigma)
    for h in range(7):
        flagged = st.single(root, 2, ["F"] * h)
        count = gr.total_count(system, root, h)
        assert yields(ball, "q0", flagged) == (count, count)


def _one_level(*transitions, states="p q", store="Z"):
    return mc.parse_automaton(
        f"levels: 1\nstates: {states}\ninitial: {states.split()[0]}\n"
        f"input: a b\nstore: {store}\nstart_symbol: Z\n"
        + "".join(f"t: {t}\n" for t in transitions))


def test_most_yield_is_capped_on_a_cycle_that_reads():
    # Z can read any number of a's before b pops it.  The cap is 2^62, so
    # only a detected cycle, not rounds that climb to the cap, ends this.
    pump = _one_level("p a Z -> p push 1 Z", "p b Z -> p pop 1")
    assert yields(pump, "p", pump.initial_store())[1] == 1 << 62
    assert mc.accepts(pump, "aaab").status == ACCEPTED


def test_most_yield_converges_on_a_cycle_that_reads_nothing():
    spin = _one_level("p eps Z -> q push 1 Z", "q eps Z -> p push 1 Z",
                      "p a Z -> p pop 1")
    for state in ("p", "q"):
        assert yields(spin, state, spin.initial_store())[1] == 1
    assert mc.accepts(spin, "a").status == ACCEPTED
    assert mc.accepts(spin, "aa").status == REJECTED


def test_most_yield_of_a_node_that_pushes_itself_stays_finite():
    # W, pushed in q1, rewrites itself as B W W W W entered in q0, and every
    # element leaves in q0.  Indexed by exit state, W from q1 depends only
    # on W from q0; a maximum over states would feed it back into itself.
    node = _one_level("p eps Z -> q push 1 W", "q eps W -> p push 1 B W W W W",
                      "p a W -> p pop 1", "p b B -> p pop 1", store="Z W B")
    w = st.single("W", 1)
    assert yields(node, "q", w) == (5, 5)
    assert yields(node, "p", node.initial_store())[1] == 5
    # Below the top, an element may be entered in either state.
    www = st.from_pairs(1, [("W", st.empty(0))] * 3)
    assert yields(node, "p", www)[1] == 1 + 5 + 5
    assert mc.accepts(node, "baaaa").status == ACCEPTED
    assert mc.accepts(node, "baaaaa").status == REJECTED


def test_most_yield_is_exact_beside_a_cycle_that_reads():
    # A and B push each other, and B reads any number of b's.  C has no
    # transition, so A's push never completes and A reads one letter: its
    # most yield stays finite although A and B reach each other.
    cycle = ("p a A -> p pop 1", "p b A -> p push 1 A B C",
             "p b B -> p push 1 B A A", "p eps B -> p pop 1")
    pair = _one_level(*cycle, store="Z A B C")
    assert yields(pair, "p", st.single("A", 1)) == (1, 1)
    assert yields(pair, "p", st.single("B", 1))[1] == 1 << 62
    # Z becomes A or B; the most yield of A cuts its branch for "aa".
    pick = _one_level("p eps Z -> p push 1 A", "p eps Z -> p push 1 B",
                      *cycle, store="Z A B C")
    v = mc.accepts(pick, "aa")
    assert (v.status, v.configurations, v.yield_cut) == (REJECTED, 3, True)
    assert mc.accepts(pick, "a").status == ACCEPTED


def test_most_yield_found_one_entry_per_round_is_not_capped():
    # S0 pushes S1, ..., S7 pushes S8, each reading an a, and S8 pops
    # reading one.  With S0's rule first, each round finds one more entry,
    # so the rounds never outnumber the live entries: no H is taken for
    # unbounded, and S0 reads exactly nine letters.
    syms = [f"S{i}" for i in range(9)]
    rules = [f"p a {s} -> p push 1 {t}" for s, t in zip(syms, syms[1:])]
    chain = _one_level(*rules, "p a S8 -> p pop 1",
                       store="Z " + " ".join(syms))
    assert yields(chain, "p", st.single("S0", 1)) == (9, 9)


def test_least_yield_of_x2_is_fibonacci(fib):
    f = [1, 1]
    while len(f) < 40:
        f.append(f[-1] + f[-2])
    for k in range(40):
        assert yields(fib, "q0", st.single("X2", 2, ["F"] * k))[0] == f[k]
    assert yields(fib, "q0", st.empty(2))[0] == 0


def test_least_yield_lets_an_element_grow_its_flag():
    # A is emptied only after a push 2 gives it a marker to count down, so
    # its yield from p is unknown to the tables and bounded by 0.
    grow = mc.parse_automaton(HEADER.replace("store: Z F", "store: Z A F") +
                              "t: q0 eps Z -> q0 push 1 A\n"
                              "t: q0 eps A -> q1 push 2 F\n"
                              "t: q1 a [A F] -> q1 pop 2\n"
                              "t: q1 a A -> q1 pop 1\n")
    assert yields(grow, "q0", st.single("A", 2))[0] == 0
    assert yields(grow, "q1", st.single("A", 2, ["F"]))[0] == 2
    assert mc.accepts(grow, "aa").status == ACCEPTED
    assert mc.enumerate_language(grow, 3) == {("a", "a")}


def test_least_yield_is_capped_when_nothing_empties():
    stuck = Automaton(levels=1, states=("q",), initial_state="q",
                      input_alphabet=("x",), store_alphabet=("Z",),
                      initial_symbol="Z",
                      transitions=(T("q", "x", ("Z",), "q", Push(1, ("Z",))),))
    assert yields(stuck, "q", stuck.initial_store())[0] == 1 << 62
    v = mc.accepts(stuck, "xxx")
    assert (v.status, v.configurations, v.yield_cut) == (REJECTED, 1, True)


def test_yield_tables_walk_flags_deeper_than_the_recursion_limit(fib):
    # Under the memo a^300 guesses heights up to its store bound, 1,216
    # symbols.
    bounds = mc.default_bounds(300)
    assert bounds.max_store_symbols > sys.getrecursionlimit()
    v = mc.accepts(fib, "a" * 300, bounds)
    assert v.status == REJECTED and v.store_cut
    deep = st.single("X2", 2, ["F"] * (sys.getrecursionlimit() + 500))
    assert yields(fibonacci_automaton(), "q0", deep)[0] == 1 << 62


GUESS = ("t: g eps Z -> g push 2 F\n" "t: g eps [Z F] -> g push 2 F\n"
         "t: g eps Z -> c push 1 Z\n" "t: g eps [Z F] -> c push 1 Z\n")


def _guesser(*transitions):
    return mc.parse_automaton(
        "levels: 2\nstates: g c d\ninitial: g\ninput: a b\nstore: Z F\n"
        "start_symbol: Z\n" + GUESS + "".join(f"t: {t}\n" for t in transitions))


def test_yield_tables_stop_at_the_cap_on_linear_yields():
    # Each pop 2 reads a letter, so Z[F^d] yields d + 1 from c: the
    # memoized guess loop grows its flag to the store bound, 820 symbols,
    # but solves tables only up to the first height whose exit needs more
    # letters than the word has, 202 of them; the taller heights read
    # table _UNFIT.
    linear = _guesser("c a [Z F] -> c pop 2", "c a Z -> c pop 1")
    word = "a" * 200 + "b"
    assert mc.default_bounds(len(word)).max_store_symbols == 820
    v = mc.accepts(linear, word)
    assert ((v.status, v.configurations, v.store_cut, v.yield_cut)
            == (REJECTED, 1021, True, True))
    assert solved(linear._yields) == 202
    assert mc.accepts(linear, "a" * 200).status == ACCEPTED
    assert yields(linear, "c", st.single("Z", 2, ["F"] * 300))[0] == 301


def test_a_memoized_guess_loop_solves_no_table_above_its_floor():
    # The fib sector's level-6 mutant, 391 letters, under the default
    # memo and store bound: the guess loop climbs to the store bound, but
    # its flags above the first height no exit fits read table _UNFIT, so
    # a fresh automaton solves 9 tables, where one per height took 512.
    spec = ContourSpec(gr.fibonacci(), "W", kind="sector")
    word = mutate(contour_word(spec, 6), 7, 1)[0]
    sector = sector_automaton(gr.fibonacci(), "W")
    v = mc.accepts(sector, word)
    assert ((v.status, v.configurations, v.store_cut, v.yield_cut)
            == (REJECTED, 1580, True, True))
    assert solved(sector._yields) <= 9


def test_yield_tables_that_repeat_are_shared():
    # pop 2 alternates c and d and only c pays to pop Z, so the tables
    # of Z[F^d] alternate with the parity of d.
    parity = _guesser("c eps [Z F] -> d pop 2", "d eps [Z F] -> c pop 2",
                      "c a Z -> c pop 1", "d eps Z -> d pop 1")
    for word, status in (("a", ACCEPTED), ("", ACCEPTED), ("aa", REJECTED),
                         ("a" * 200, REJECTED)):
        assert mc.accepts(parity, word).status == status
        assert solved(parity._yields) == 2
    for d in (2, 3, 1500):
        assert yields(parity, "c", st.single("Z", 2, ["F"] * d))[0] == (d + 1) % 2


def test_most_yield_tables_shared_across_flag_tops():
    # A and B read one letter whether or not their flag is empty, so every
    # flag F^d has the table of the empty flag.  That table must know the
    # high of the commit that fires on [Z F] too, or "a" is cut at height 1.
    shared = mc.parse_automaton(
        "levels: 2\nstates: g c\ninitial: g\ninput: a\nstore: Z A B F\n"
        "start_symbol: Z\n"
        "t: g eps Z -> g push 2 F\n" "t: g eps [Z F] -> g push 2 F\n"
        "t: g eps Z -> c push 1 A B\n" "t: g eps [Z F] -> c push 1 B\n"
        "t: c a A -> c pop 1\n" "t: c a [A F] -> c pop 1\n"
        "t: c a B -> c pop 1\n" "t: c a [B F] -> c pop 1\n")
    for word, status in (("a", ACCEPTED), ("aa", ACCEPTED), ("aaa", REJECTED)):
        assert mc.accepts(shared, word).status == status
    assert solved(shared._yields) == 1


def _counted(method):
    """A patch that counts the calls of a ``_YieldTables`` method."""
    return mock.patch.object(mc._YieldTables, method, autospec=True,
                             side_effect=getattr(mc._YieldTables, method))


def test_yield_table_rounds_refold_only_chains_whose_rows_changed():
    # The cell120 sector automaton's tables for the flags F^0 .. F^3.  A
    # round folds a push 1 rule again only when a row its chain read
    # changed in the round before: 48 chains, against 95 for rounds that
    # fold it again when any symbol of its word changed.
    sector = sector_automaton(gr.cell120(), "9")
    with _counted("_chain") as chain:
        tables = mc._YieldTables(sector)
        for h in range(4):
            flag_table(tables, st.single("Z", 2, ["F"] * h).flag)
    assert solved(tables) == 4
    assert chain.call_count == 48


def test_a_warm_automaton_solves_no_table_again():
    # The fib sector's positives at levels 1-6, on one automaton, as itpda
    # check runs them: a later word reads the warm tables an earlier one
    # left on the automaton, so each table is solved once, in 9 _add
    # calls, and so it is for the same words in the other order.
    fib = gr.fibonacci()
    spec = ContourSpec(fib, "W", kind="sector")
    words = [contour_word(spec, level) for level in range(1, 7)]

    def solves(automaton, words):
        with _counted("_add") as add:
            for word in words:
                verdict = mc.accepts(automaton, word,
                                     mc.default_bounds(len(word)),
                                     memoize=False)
                assert verdict.status == ACCEPTED
        return add.call_count

    sector = sector_automaton(fib, "W")
    assert solves(sector, words) == 9
    assert solves(replace(sector), words[::-1]) == 9


# (kind, system, root, sigma, level, top level, store nodes,
# configurations): families of the benchmark's check-mutants job list,
# each at one level below its top, searched after the top-level word.
WARM_AFTER_TOP = [
    ("ball", gr.fibonacci, "W", 5, 2, 6, 123, 192),
    ("ball", gr.dodecahedral, "O", 8, 1, 3, 139, 379),
    ("sector", gr.fibonacci, "W", 1, 3, 6, 261, 236),
    ("sector", gr.fibonacci, "B", 1, 4, 6, 378, 573),
]


@pytest.mark.parametrize("case", WARM_AFTER_TOP,
                         ids=lambda c: f"{c[1].__name__}-{c[0]}-{c[2]}")
def test_warm_tables_and_summaries_change_no_later_search(case):
    # After the family's top-level word, a level's positive and its 20
    # seeded mutants read the warm tables and summaries that word left on
    # the automaton, and give the verdicts they give on a fresh automaton.
    # They build no more store nodes: the top-level word left summaries
    # of the subtrees they share, which they jump.
    kind, make, root, sigma, level, top, nodes, configs = case
    system = make()
    spec = ContourSpec(system, root, sigma=sigma, kind=kind)

    def build():
        return (ball_automaton(system, root, sigma) if kind == "ball"
                else sector_automaton(system, root))

    fresh = build()
    word = contour_word(spec, level)
    bounds = mc.default_bounds(len(word))
    words = [word, *mutate(word, 100003 + level, 20,
                           alphabet=fresh.input_alphabet)]

    def searched(automaton):
        CountingStore.built = 0
        with mock.patch.object(mc, "Store", CountingStore):
            verdicts = [mc.accepts(automaton, w, bounds, memoize=False)
                        for w in words]
        return (CountingStore.built,
                [(v.status, v.configurations, v.store_cut, v.yield_cut)
                 for v in verdicts])

    fresh = searched(fresh)
    warm = build()
    top_word = contour_word(spec, top)
    assert mc.accepts(warm, top_word, mc.default_bounds(len(top_word)),
                      memoize=False).status == ACCEPTED
    warm = searched(warm)
    assert fresh[1] == warm[1]
    assert warm[0] <= fresh[0]
    assert (fresh[0], sum(v[1] for v in fresh[1])) == (nodes, configs)


def test_a_search_reaches_the_tables_only_for_flags_it_builds():
    # Each flag node a guess loop builds gets its table id from child as
    # it is built, and no other code asks the tables for an id, so the
    # calls of child are the flag nodes these 616 searches build.  The
    # words: every {b,w} word up to 8 letters on the fib ball automaton
    # (sigma 5), and a check of the fib sector automaton, each level's
    # positive and its mutants.  The ball words search under the memo, and
    # the sector's loops end at the guess-loop cut.
    fib = gr.fibonacci()
    ball = ball_automaton(fib, "W", 5)
    words = [w for n in range(9) for w in itertools.product("bw", repeat=n)]
    sector = sector_automaton(fib, "W")
    spec = ContourSpec(fib, "W", kind="sector")
    checks = []
    for level in range(1, 6):
        word = contour_word(spec, level)
        bounds = mc.default_bounds(len(word))
        for w in [word, *mutate(word, 100003 + level, 20,
                                alphabet=sector.input_alphabet)]:
            checks.append((w, bounds))
    assert len(words) + len(checks) == 616
    with _counted("child") as child:
        for w in words:
            mc.accepts(ball, w)
        for w, bounds in checks:
            mc.accepts(sector, w, bounds, memoize=False)
    assert child.call_count == 22473


def test_a_push_2_cycle_keeps_no_flag_it_dropped():
    # Without the memo this cycle spins until the budget runs out, and
    # each round's push 2 builds a flag that the pop 2 drops.  Each flag
    # node carries its own table id in its _tid slot, and the tables keep
    # no flag: once the open segments reach their cap (one per
    # configuration, two per round), the allocated blocks stay flat.
    # Anything that held each flag would grow by a few blocks per round.
    spin = mc.parse_automaton(HEADER + "t: q0 eps Z -> q1 push 2 F\n"
                              "t: q1 eps [Z F] -> q0 pop 2\n")
    child = mc._YieldTables.child
    cap = mc._MAX_OPEN_SEGMENTS
    calls = [0]
    samples = []

    def sampled(self, top, rest_id):
        calls[0] += 1
        if calls[0] in (cap, 3 * cap):
            samples.append(sys.getallocatedblocks())
        return child(self, top, rest_id)

    with mock.patch.object(mc._YieldTables, "child", sampled):
        verdict = mc.accepts(spin, "", SearchBounds(10, 6 * cap + 10),
                             memoize=False)
    assert verdict.status == INCONCLUSIVE
    assert calls[0] > 3 * cap
    first, last = samples
    assert last - first < 1000


def test_verdict_bool(fib):
    assert bool(mc.accepts(fib, "a"))
    assert not mc.accepts(fib, "aaaa")


# --- traces --------------------------------------------------------------------------

def _cycle_through_branch():
    # (x, 0, Z) is the third configuration, counting the start, on a path
    # without branches, so the search does not remember it.  The branch
    # point y leads back to it first and then on to f, which reads.  Its
    # second parent descends from it: only its first parent gives a
    # witness that reaches the start.
    return Automaton(
        levels=1, states=("s", "u", "x", "y", "f"), initial_state="s",
        input_alphabet=("a",), store_alphabet=("Z", "A"), initial_symbol="Z",
        transitions=(
            T("s", None, ("Z",), "u", Push(1, ("Z",))),
            T("u", None, ("Z",), "x", Push(1, ("Z",))),
            T("x", None, ("Z",), "y", Push(1, ("A", "Z"))),
            T("y", None, ("A",), "x", Pop(1)),
            T("y", None, ("A",), "f", Pop(1)),
            T("f", "a", ("Z",), "f", Pop(1)),
        ))


def _trace_cases():
    fib_system, poly6 = gr.fibonacci(), gr.polygonal(6)
    sector = contour_word(ContourSpec(fib_system, "W", kind="sector"), 4)
    ball = contour_word(ContourSpec(poly6, "W", sigma=6, kind="ball"), 3)
    yield fibonacci_automaton(), "a" * 13, True
    yield sector_automaton(fib_system, "W"), sector, True
    yield ball_automaton(poly6, "W", 6), ball, True
    yield _cycle_through_branch(), "a", True
    yield ball_automaton(poly6, "W", 6), ball, False


def test_trace_replays_under_step():
    for automaton, word, memoize in _trace_cases():
        v = mc.accepts(automaton, word, trace=True, memoize=memoize)
        assert v.status == ACCEPTED
        assert_witness(automaton, word, v.trace,
                       automaton.initial_configuration())


def test_trace_absent_unless_requested(fib):
    assert mc.accepts(fib, "aaa").trace is None


# --- tree-walk exploration ------------------------------------------------------------

# (system, root, kind, sigma, level, letters, configurations, witness
# length, configurations of the 5 mutants of mutate(word, 7, 5)).
TREE_WALKS = [
    (gr.cell120, "9", "sector", 1, 2, 13_090, 13_329, 13_328,
     [3, 2, 8941, 3, 2]),
    (lambda: gr.polygonal(7), "W", "ball", 7, 4, 3_857, 5_894, 5_893,
     [5, 4, 5, 4, 5]),
    (gr.fibonacci, "W", "sector", 1, 6, 390, 867, 866,
     [8, 7, 625, 8, 7]),
]


@pytest.mark.parametrize("case", TREE_WALKS, ids=["cell120", "poly7", "fib"])
def test_tree_walk_exploration_is_pinned(case):
    # The search expands transitions in declaration order, depth first,
    # so these counts and the witness fix the order in which it walks.
    make, root, kind, sigma, level, letters, configs, witness, mutants = case
    system = make()
    automaton = (ball_automaton(system, root, sigma) if kind == "ball"
                 else sector_automaton(system, root))
    word = contour_word(ContourSpec(system, root, sigma=sigma, kind=kind),
                        level)
    assert len(word) == letters
    bounds = SearchBounds(suggested_store_bound(system, sigma, level),
                          10 ** 7)
    built = []
    for memoize in (True, False):
        CountingStore.built = 0
        with mock.patch.object(mc, "Store", CountingStore):
            v = mc.accepts(automaton, word, bounds, memoize=memoize)
        # Without the memo the guess-loop cut drops the push 2 above the
        # accepting height: no commit there reads as few letters as are
        # left.
        assert (v.status, v.configurations) == (ACCEPTED,
                                                configs - (not memoize))
        built.append(CountingStore.built)
    # A jumped copy is one step under the memo too, so both searches
    # build the same store nodes, save the element node of that push 2.
    assert built[0] == built[1] + 1
    trace = mc.accepts(automaton, word, bounds, trace=True).trace
    assert len(trace) == witness
    assert_witness(automaton, word, trace, automaton.initial_configuration())
    variants = mutate(word, 7, 5, alphabet=automaton.input_alphabet)
    counts = []
    for mutant in variants:
        v = mc.accepts(automaton, mutant, bounds, memoize=False)
        assert (v.status, v.exact) == (REJECTED, True)
        counts.append(v.configurations)
    assert counts == mutants


# --- segment summaries -----------------------------------------------------------------

# (system, root, kind, sigma, level, smallest accepting store bound,
# configurations rejected one below it, configurations of the accepting
# run), the last two with the memo and without it.
BOUND_EDGES = [
    (lambda: gr.polygonal(6), "W", "ball", 6, 3, 36, (41, 10), (582, 581)),
    (gr.cell120, "9", "sector", 1, 2, 346, (349, 7), (13_329, 13_328)),
    (gr.fibonacci, "W", "sector", 1, 6, 35, (53, 27), (867, 866)),
]


@pytest.mark.parametrize("memoize", [True, False])
@pytest.mark.parametrize("case", BOUND_EDGES, ids=["poly6", "cell120", "fib"])
def test_bounds_are_exact_at_their_edges(case, memoize):
    # A later copy of a subtree can sit on a taller store than the first,
    # and the budget can run out inside it, so a jump must stop at exactly
    # the bounds at which the step-by-step walk stops.
    make, root, kind, sigma, level, smallest, cut_at, configs = case
    cut_at, configs = cut_at[not memoize], configs[not memoize]
    system = make()
    automaton = (ball_automaton(system, root, sigma) if kind == "ball"
                 else sector_automaton(system, root))
    word = contour_word(ContourSpec(system, root, sigma=sigma, kind=kind),
                        level)
    v = mc.accepts(automaton, word, SearchBounds(smallest, 10 ** 7),
                   memoize=memoize)
    assert (v.status, v.configurations, v.store_cut) == (ACCEPTED, configs, False)
    v = mc.accepts(automaton, word, SearchBounds(smallest - 1, 10 ** 7),
                   memoize=memoize)
    assert (v.status, v.configurations, v.store_cut) == (REJECTED, cut_at, True)
    # The accepting run's last configuration is the budget's first over.
    store = suggested_store_bound(system, sigma, level)
    v = mc.accepts(automaton, word, SearchBounds(store, configs - 1),
                   memoize=memoize)
    assert (v.status, v.configurations) == (ACCEPTED, configs)
    v = mc.accepts(automaton, word, SearchBounds(store, configs - 2),
                   memoize=memoize)
    assert (v.status, v.configurations) == (INCONCLUSIVE, configs - 1)


def test_repeated_subtrees_are_walked_once():
    # Every copy of a (label, height) subtree after the first is matched
    # against the input in one comparison, so the search builds store
    # nodes for a few copies only, though it counts every configuration.
    # The memo stops no jump, so it builds the same nodes as a memo-free
    # search.
    system = gr.polygonal(7)
    automaton = ball_automaton(system, "W", 7)
    word = contour_word(ContourSpec(system, "W", sigma=7, kind="ball"), 6)
    bounds = SearchBounds(suggested_store_bound(system, 7, 6), 10 ** 7)
    built = []
    for memoize in (True, False):
        CountingStore.built = 0
        with mock.patch.object(mc, "Store", CountingStore):
            v = mc.accepts(automaton, word, bounds, memoize=memoize)
        assert v.status == ACCEPTED
        assert v.configurations > 10 ** 5
        assert CountingStore.built < v.configurations // 100
        built.append(CountingStore.built)
    # Without the memo the guess-loop cut drops the push 2 above the
    # accepting height before it builds the new element.
    assert built[0] == built[1] + 1


def _two_paths(*transitions, states):
    # From the branch point s, one path pushes A A Y and the other reads
    # an a into B Y.  A reads a via B, and Y pops only on c.  The second A
    # is a copy of the first, and it passes through the configuration
    # (w, 1, B.Y) that the other path reaches.
    return mc.parse_automaton(
        f"levels: 1\nstates: s w r {states}\ninitial: s\ninput: a b c\n"
        "store: Z A B Y\nstart_symbol: Z\n"
        + "".join(f"t: {t}\n" for t in transitions)
        + "t: w eps A -> w push 1 B\nt: w a B -> w pop 1\n"
          "t: w c Y -> w pop 1\nt: r a Z -> w push 1 B Y\n")


def test_a_path_meeting_a_jumped_copy_is_pruned_at_its_end():
    # The path through the copy goes first.  Under the memo a jumped copy
    # is one step: its last configuration, (w, 2, Y), is the 8th the path
    # generates after the branch point, so the memo remembers it.  The
    # other path passes (w, 1, B.Y), inside the copy, and is pruned one
    # step later, at (w, 2, Y).
    first = _two_paths("s eps Z -> p push 1 Z", "s eps Z -> r push 1 Z",
                       "p eps Z -> p2 push 1 Z", "p2 eps Z -> p3 push 1 Z",
                       "p3 eps Z -> p4 push 1 Z", "p4 eps Z -> w push 1 A A Y",
                       states="p p2 p3 p4")
    # The other path goes first and leaves (w, 1, B.Y) remembered.  The
    # copy starts at a position no further, so it does not jump, which
    # could pass that configuration: it is walked and pruned there.
    second = _two_paths("s eps Z -> r push 1 Z", "s eps Z -> p push 1 Z",
                        "p eps Z -> w push 1 A A Y", states="p")
    for automaton, memo_count, count in ((first, 12, 13), (second, 8, 10)):
        for memoize, expected in ((True, memo_count), (False, count)):
            v = mc.accepts(automaton, "aab", memoize=memoize)
            assert (v.status, v.configurations) == (REJECTED, expected)


def _pending():
    # The branch point's second successor (w, 1, B.Y) waits on the stack
    # while the first path's copy of A passes through it.
    return _two_paths("s eps Z -> w push 1 A A Y", "s a Z -> w push 1 B Y",
                      states="")


def test_the_witness_is_the_walked_path():
    # With the memo the first path is pruned at (w, 1, B.Y), which the
    # branch point left remembered, and the witness is the second path.
    # Without it the first path walks on through (w, 1, B.Y), jumping the
    # copy of A, and accepts.
    for memoize, path in (
            (True, [("s", 0, "Z"), ("w", 1, "B.Y"), ("w", 2, "Y"),
                    ("w", 3, "e")]),
            (False, [("s", 0, "Z"), ("w", 0, "A.A.Y"), ("w", 0, "B.A.Y"),
                     ("w", 1, "A.Y"), ("w", 1, "B.Y"), ("w", 2, "Y"),
                     ("w", 3, "e")])):
        pending = _pending()
        v = mc.accepts(pending, "aac", trace=True, memoize=memoize)
        assert v.status == ACCEPTED
        assert [(c.state, c.position, st.render(c.store))
                for c, _ in v.trace] == path
        assert_witness(pending, "aac", v.trace, pending.initial_configuration())


def test_tracing_does_not_change_the_walk():
    # A memo-free search jumps the copy of A whether it traces or not.
    walks = []
    for trace in (False, True):
        CountingStore.built = 0
        with mock.patch.object(mc, "Store", CountingStore):
            v = mc.accepts(_pending(), "aac", trace=trace, memoize=False)
        walks.append((v.status, v.configurations, CountingStore.built))
    assert walks == [(ACCEPTED, 8, 6)] * 2


def _taller_copy():
    # A ball word whose tree has a later copy of a subtree on a taller
    # store than its first copy; at a store bound of 10 only the later
    # copy breaks the bound.
    system = gr.SubstitutionSystem(
        "drawn", ("A", "B", "C"),
        {"A": ("C",), "B": ("A", "C"), "C": ("C", "C", "B")},
        {"A": "b", "B": "b", "C": "a"}, (2,))
    return (ball_automaton(system, "B", 2),
            contour_word(ContourSpec(system, "B", sigma=2), 3))


def test_a_copy_on_a_taller_store_is_cut_where_the_walk_would_be():
    # Without the memo the guess-loop cut ends the loop sooner.
    automaton, word = _taller_copy()
    for memoize, cut_at, configs in ((True, 23, 56), (False, 17, 55)):
        cut = mc.accepts(automaton, word, SearchBounds(10, 10 ** 4),
                         memoize=memoize)
        assert (cut.status, cut.configurations, cut.store_cut) \
            == (REJECTED, cut_at, True)
        v = mc.accepts(automaton, word, SearchBounds(11, 10 ** 4),
                       memoize=memoize)
        assert (v.status, v.configurations) == (ACCEPTED, configs)


def test_a_cap_on_open_segments_changes_no_count():
    # Past the cap a chain walk opens no more segments, so it records
    # fewer summaries, but it still folds every store into the high-water
    # marks of the segments that are open.
    automaton, word = _taller_copy()
    for cap in range(1, 8):
        with mock.patch.object(mc, "_MAX_OPEN_SEGMENTS", cap):
            for store, status, configs in ((10, REJECTED, 17),
                                           (11, ACCEPTED, 55)):
                v = mc.accepts(automaton, word, SearchBounds(store, 10 ** 4),
                               memoize=False)
                assert (v.status, v.configurations) == (status, configs)


def test_memoized_searches_keep_their_summaries_apart():
    # Memo-free searches leave their summaries on the automaton; a search
    # under the memo neither reads nor writes them.  On the fib sector,
    # warm from the positives of levels 1-5, the level-4 positive and two
    # mutants give the counts and build the store nodes they do on a
    # fresh automaton.
    fib = gr.fibonacci()
    spec = ContourSpec(fib, "W", kind="sector")
    warm = sector_automaton(fib, "W")
    for level in range(1, 6):
        assert mc.accepts(warm, contour_word(spec, level), memoize=False)
    summaries = dict(warm._summaries)
    assert summaries
    word = contour_word(spec, 4)
    for w in [word, *mutate(word, 7, 2, alphabet=warm.input_alphabet)]:
        searches = []
        for automaton in (warm, sector_automaton(fib, "W")):
            CountingStore.built = 0
            with mock.patch.object(mc, "Store", CountingStore):
                v = mc.accepts(automaton, w)
            searches.append((v.status, v.configurations, v.store_cut,
                             v.yield_cut, CountingStore.built))
        assert searches[0] == searches[1]
    assert warm._summaries == summaries


def test_a_check_keeps_few_summaries_per_automaton():
    # A summary is kept per (state, symbol, flag), and a tree walk's flags
    # are its heights, so the table stays small however many words an
    # automaton searches.  After each family's first three levels with 20
    # mutants each, the largest (cell120 ball) holds 35 entries.
    made = []

    def build(*args):
        made.append(build_automaton(*args))
        return made[-1]

    with mock.patch.object(cli, "build_automaton", build):
        for kind, make, root, sigma, levels in CHECKED_FAMILIES:
            assert cli.run_check(kind, make(), root, sigma, levels[:3], 20,
                                 0).ok
    assert len(made) == len(CHECKED_FAMILIES)
    assert max(len(a._summaries) for a in made) <= 64


# --- saturated guess loops -------------------------------------------------------------

def _fib_ball_mutants():
    fib = gr.fibonacci()
    word = contour_word(ContourSpec(fib, "W", sigma=5, kind="ball"), 6)
    return ball_automaton(fib, "W", 5), mutate(word, 100003 + 6, 20)


def test_saturated_guess_loops_build_no_store_nodes():
    # A memo-free search ends each of these guess loops once no commit
    # reads as few letters as are left, before the flag's table settles,
    # and builds no store nodes for the heights it drops: stepping through
    # them up to the store bound of 135 made 15,220 configurations and
    # asked child for the table of each of 200 new flags.
    ball, mutants = _fib_ball_mutants()
    bounds = SearchBounds(suggested_store_bound(gr.fibonacci(), 5, 6), 10 ** 7)
    assert bounds.max_store_symbols == 135
    CountingStore.built = 0
    with mock.patch.object(mc, "Store", CountingStore), \
            _counted("child") as child:
        verdicts = [mc.accepts(ball, m, bounds, memoize=False)
                    for m in mutants]
    assert {(v.status, v.store_cut, v.yield_cut) for v in verdicts} \
        == {(REJECTED, False, True)}
    assert sum(v.configurations for v in verdicts) == 12_654
    assert CountingStore.built <= 1000
    assert child.call_count == 134


def test_a_rising_guess_loop_is_rejected_exactly_without_a_store_bound():
    # Each guess step raises the commit's least yield, so the memo-free
    # search stops the loop by itself: no bound is needed to reject.
    ball, mutants = _fib_ball_mutants()
    v = mc.accepts(ball, mutants[0], SearchBounds(None, 10 ** 6),
                   memoize=False)
    assert (v.status, v.configurations, v.exact) == (REJECTED, 6, True)


def _cheaper_exit():
    # A guess loop whose exit reads fewer letters as the flag grows: B[F]
    # reads an a, and B[F^k], k >= 2, reads nothing.  So the empty word
    # is accepted at every height from 2, and the tables settle at F F.
    return mc.parse_automaton(
        "levels: 2\nstates: q r s t\ninitial: q\ninput: a\nstore: Z B F\n"
        "start_symbol: Z\n"
        "t: q eps Z -> q push 2 F\nt: q eps [Z F] -> q push 2 F\n"
        "t: q eps Z -> r push 1 B\nt: q eps [Z F] -> r push 1 B\n"
        "t: r eps [B F] -> s pop 2\nt: s eps [B F] -> t pop 1\n"
        "t: s a B -> t pop 1\n")


def test_a_guess_loop_whose_exit_gets_cheaper_is_not_cut():
    # At height 1 the commit reads at least one letter, more than the
    # empty word has, but the L table falls from the empty flag's to
    # F's, so the cut does not read that as a bound on later heights.
    cheap = _cheaper_exit()
    for memoize in (True, False):
        assert mc.accepts(cheap, "", memoize=memoize).status == ACCEPTED
    tables = cheap._yield_tables()
    grown = tables.child("F", 0)
    assert tables.lows[grown][3] == 1
    assert tables.floor(0, 0, grown) == -1


def test_a_guess_loop_with_cheap_exits_is_stepped_to_the_budget_or_store_bound():
    # The exits of this loop read no letter from height 2 on, so no
    # guess-loop cut ends it on "aa".  Without a store bound nothing
    # does: the search steps through it, building each guess's store
    # nodes, until the budget runs out.  With no budget either it would
    # never end.  Under a store bound it is stepped up to that bound, and
    # builds the store nodes ``walk`` counts.
    cheap = _cheaper_exit()
    for budget in (1, 500, 5000):
        CountingStore.built = 0
        with mock.patch.object(mc, "Store", CountingStore):
            v = mc.accepts(cheap, "aa", SearchBounds(None, budget),
                           memoize=False)
        assert (v.status, v.configurations) == (INCONCLUSIVE, budget + 1)
        assert not v.store_cut
        assert CountingStore.built >= budget
    CountingStore.built = 0
    with mock.patch.object(mc, "Store", CountingStore):
        v = mc.accepts(cheap, "aa", SearchBounds(40, 5000), memoize=False)
    assert (v.status, v.configurations, v.store_cut) == (REJECTED, 40, True)
    assert CountingStore.built == 78


# --- determinism, memoization, monotonicity ----------------------------------------------

@settings(deadline=None, max_examples=30)
@given(hst.integers(0, 40))
def test_memoization_equivalence(n):
    fib = fibonacci_automaton()
    word = "a" * n
    assert (mc.accepts(fib, word, memoize=True).status
            == mc.accepts(fib, word, memoize=False).status)


@settings(deadline=None, max_examples=30)
@given(hst.integers(0, 40), hst.integers(1, 3))
def test_bounds_monotonicity(n, factor):
    # Acceptance is final, and so is a rejection whose search was never
    # pruned by the store bound; a store-cut rejection may flip to
    # Accepted once the bound admits the (longer) accepting run.
    fib = fibonacci_automaton()
    word = "a" * n
    small = mc.accepts(fib, word, SearchBounds(20, 2000))
    big = mc.accepts(fib, word,
                     SearchBounds(20 * factor + 20, 2000 * factor + 50000))
    if small.status == ACCEPTED:
        assert big.status == ACCEPTED
    elif small.status == REJECTED and not small.store_cut:
        assert big.status == REJECTED


# --- reachable -----------------------------------------------------------------------------

def test_reachable_goal_equals_start(fib):
    cfg = Configuration("q0", 0, st.single("X1", 2))
    assert mc.reachable(fib, cfg, cfg, "").status == ACCEPTED


def test_reachable_lemma_instance_k3(fib):
    # From X2 flagged with 3 height markers, reading a^{f_3} empties the store.
    start = Configuration("q0", 0, st.single("X2", 2, ["F"] * 3))
    goal = Configuration("q0", 3, st.empty(2))
    assert mc.reachable(fib, start, goal, "aaa").status == ACCEPTED
    wrong = Configuration("q0", 2, st.empty(2))
    assert mc.reachable(fib, start, wrong, "aa").status == REJECTED


def test_reachable_witnesses(fib):
    # A goal equal to the start, with a letter left, is its own witness.
    cfg = Configuration("q0", 0, st.single("X1", 2))
    assert mc.reachable(fib, cfg, cfg, "a", trace=True).trace == [(cfg, None)]
    # The lemma instance k = 3 empties the store in 12 entries.
    start = Configuration("q0", 0, st.single("X2", 2, ["F"] * 3))
    goal = Configuration("q0", 3, st.empty(2))
    v = mc.reachable(fib, start, goal, "aaa", trace=True)
    assert_witness(fib, "aaa", v.trace, start, goal)
    assert len(v.trace) == 12


def test_reachable_witness_stops_at_a_goal_partway(fib):
    # The walk passes the guess loop's branch points and stops at the
    # goal, with a letter and the store still left.
    start = fib.initial_configuration()
    goal = Configuration("q0", 1, st.parse("X2.X2[F]", 2))
    v = mc.reachable(fib, start, goal, "aaa", trace=True)
    assert v.status == ACCEPTED
    assert_witness(fib, "aaa", v.trace, start, goal)
    assert [(c.state, c.position, st.render(c.store)) for c, _ in v.trace] == [
        ("q0", 0, "Z"), ("q0", 0, "Z[F]"), ("q0", 0, "Z[F.F]"),
        ("q0", 0, "Z[F.F.F]"), ("q0", 0, "X2[F.F.F]"), ("q2", 0, "X2[F.F]"),
        ("q0", 0, "X1[F.F]"), ("q1", 0, "X1[F]"), ("q0", 0, "X1[F].X2[F]"),
        ("q1", 0, "X1.X2[F]"), ("q0", 0, "X1.X2.X2[F]"),
        ("q0", 1, "X2.X2[F]")]


def test_reachable_rejects_stores_of_another_level(fib):
    ok = Configuration("q0", 0, st.single("X1", 2))
    for bad in (st.single("X1", 1), st.single("X1", 3, ["F"])):
        wrong = Configuration("q0", 0, bad)
        with pytest.raises(mc.MachineError):
            mc.reachable(fib, wrong, ok, "a")
        with pytest.raises(mc.MachineError):
            mc.reachable(fib, ok, wrong, "a")


def test_reachable_rejects_positions_off_the_word(fib):
    # From position -1, X1 would read the word's last letter and reach
    # position 0 with the store empty.
    x1 = st.single("X1", 2)
    ok = Configuration("q0", 0, st.empty(2))
    for pos in (-1, 2):
        off = Configuration("q0", pos, x1)
        with pytest.raises(mc.MachineError, match="position"):
            mc.reachable(fib, off, ok, "a")
        with pytest.raises(mc.MachineError, match="position"):
            mc.reachable(fib, ok, off, "a")


def test_reachable_rejects_undeclared_states_and_store_symbols(fib):
    # A typo in a state name read as a rejection in one configuration.
    start = Configuration("q0", 0, st.single("X1", 2))
    goal = Configuration("q0", 1, st.empty(2))
    bad = [Configuration("nowhere", 0, start.store),
           *(Configuration("q0", 0, store) for store in UNDECLARED_STORES)]
    for cfg in bad:
        with pytest.raises(mc.MachineError, match="undeclared"):
            mc.reachable(fib, cfg, goal, "a")
        with pytest.raises(mc.MachineError, match="undeclared"):
            mc.reachable(fib, start, replace(cfg, position=1), "a")
    assert mc.reachable(fib, start, goal, "a")


# --- enumerate_language ------------------------------------------------------------------------

def test_enumerate_language_fibonacci(fib):
    lang = mc.enumerate_language(fib, 9)
    assert {len(w) for w in lang} == {1, 2, 3, 5, 8}


def test_enumerate_language_through_a_push_2_of_two_symbols():
    # The as-printed fib ball automaton's guess loop pushes F F, and the
    # enumeration gives both new flag nodes their table ids, bottom first.
    # Up to 40 letters it accepts the contours of levels 0 and 1 alone.
    ball = ball_automaton(gr.fibonacci(), "W", 5, Variant.AS_PRINTED)
    assert any(t.action == Push(2, ("F", "F")) for t in ball.transitions)
    spec = ContourSpec(gr.fibonacci(), "W", sigma=5, kind="ball")
    words = mc.enumerate_language(ball, 40)
    assert words == {contour_word(spec, 0), contour_word(spec, 1)}
    assert sorted(map(len, words)) == [5, 15]


def test_enumerate_language_budget_error(fib):
    with pytest.raises(mc.SearchLimitError):
        mc.enumerate_language(fib, 9, SearchBounds(60, 10))


def test_enumeration_ends_guess_loops_without_a_store_bound():
    # The guess loop is dropped at the first height whose exits need more
    # letters than are left, so no store bound is needed, and the fresh
    # automaton solves a table for the few flags below that height alone.
    sector = sector_automaton(gr.fibonacci(), "W")
    words = mc.enumerate_language(sector, 200, SearchBounds(None, 10 ** 5))
    spec = ContourSpec(gr.fibonacci(), "W", kind="sector")
    assert words == {contour_word(spec, level) for level in range(1, 6)}
    assert sorted(map(len, words)) == [6, 13, 28, 64, 155]
    assert solved(sector._yields) == 8
    # The cut keeps a height whose exits need exactly the letters left.
    for max_len in (154, 155):
        assert mc.enumerate_language(sector, max_len, SearchBounds(
            None, 10 ** 5)) == {w for w in words if len(w) <= max_len}


ENUMERATED_FAMILIES = [
    *((kind, make, root, sigma, "corrected")
      for kind, make, root, sigma, _ in CHECKED_FAMILIES),
    ("ball", gr.fibonacci, "W", 5, "as-printed"),
    ("sector", gr.fibonacci, "W", 1, "as-printed"),
]


@pytest.mark.parametrize(
    "kind, make, root, sigma, variant", ENUMERATED_FAMILIES,
    ids=[f"{kind}-{make().name}-{root}-{sigma}-{variant}"
         for kind, make, root, sigma, variant in ENUMERATED_FAMILIES])
def test_enumeration_needs_no_store_bound_on_the_builders(kind, make, root,
                                                          sigma, variant):
    automaton = build_automaton(kind, make(), root, sigma, variant)
    unbounded = mc.enumerate_language(automaton, 40, SearchBounds(None, 10 ** 4))
    assert unbounded == mc.enumerate_language(automaton, 40,
                                              mc.default_bounds(40))


def test_enumeration_keeps_a_guessed_word_of_exactly_max_len_letters():
    # The contour word of each family's second level, whose run guesses a
    # height: the cut keeps the height whose exits need exactly the
    # letters left, so the word is listed to its own length and not one
    # letter short.  The cell120 sector's level-2 word has 13,090 letters,
    # so it takes level 1, whose run guesses too.
    for kind, make, root, sigma, levels in CHECKED_FAMILIES:
        system = make()
        automaton = build_automaton(kind, system, root, sigma, "corrected")
        level = (levels[0] if (kind, make) == ("sector", gr.cell120)
                 else levels[1])
        word = contour_word(ContourSpec(system, root, sigma=sigma, kind=kind),
                            level)
        assert word in mc.enumerate_language(automaton, len(word)), \
            (kind, system.name, level)
        assert word not in mc.enumerate_language(automaton, len(word) - 1)


def test_enumeration_budget_edge_to_60():
    # A guess step the cut drops is neither remembered nor counted: the
    # fib sector W enumeration to 60 keeps 98 configurations.
    sector = sector_automaton(gr.fibonacci(), "W")
    store = mc.default_bounds(60).max_store_symbols
    words = mc.enumerate_language(sector, 60, SearchBounds(store, 98))
    assert sorted(map(len, words)) == [6, 13, 28]
    with pytest.raises(mc.SearchLimitError):
        mc.enumerate_language(sector, 60, SearchBounds(store, 97))


def test_enumerate_language_rejects_a_negative_length():
    # The empty word is accepted, so a search would list it for any
    # length; without bounds, -5 would fail on a store bound of -4.
    empty = Automaton(levels=1, states=("q",), initial_state="q",
                      input_alphabet=("x",), store_alphabet=("Z",),
                      initial_symbol="Z",
                      transitions=(T("q", None, ("Z",), "q", Pop(1)),))
    assert mc.enumerate_language(empty, 0) == {()}
    for max_len in (-1, -5):
        with pytest.raises(mc.MachineError, match="max_len must be >= 0"):
            mc.enumerate_language(empty, max_len)


# --- construction validation ---------------------------------------------------------------------

def test_automaton_validation_errors():
    base = dict(levels=2, states=("q",), initial_state="q",
                input_alphabet=("x",), store_alphabet=("Z",),
                initial_symbol="Z")
    with pytest.raises(mc.MachineError):
        Automaton(transitions=(T("q", "x", ("Z",), "nope", Pop(1)),), **base)
    with pytest.raises(mc.MachineError):
        Automaton(transitions=(T("q", "z", ("Z",), "q", Pop(1)),), **base)
    with pytest.raises(mc.MachineError):
        Automaton(transitions=(T("q", "x", ("Z",), "q", Pop(3)),), **base)
    with pytest.raises(mc.MachineError):
        Automaton(transitions=(T("q", "x", ("Q",), "q", Pop(1)),), **base)
    with pytest.raises(mc.MachineError):
        Automaton(transitions=(T("q", "x", ("Z",), "q", Push(1, ("Q",))),),
                  **base)


def test_duplicate_transitions_merge(fib):
    doubled = Automaton(
        levels=fib.levels, states=fib.states, initial_state=fib.initial_state,
        input_alphabet=fib.input_alphabet, store_alphabet=fib.store_alphabet,
        initial_symbol=fib.initial_symbol,
        transitions=fib.transitions + fib.transitions)
    v1 = mc.accepts(fib, "a" * 5)
    v2 = mc.accepts(doubled, "a" * 5)
    assert v1.status == v2.status == ACCEPTED
    assert v1.configurations == v2.configurations


# --- file format -----------------------------------------------------------------------------------

def test_render_parse_round_trip(fib):
    assert mc.parse_automaton(mc.render_automaton(fib)) == fib


def test_round_trip_multichar_symbols():
    a = Automaton(
        levels=2, states=("q0",), initial_state="q0",
        input_alphabet=("x",), store_alphabet=("Z", "X1", "6a"),
        initial_symbol="Z",
        transitions=(
            T("q0", None, ("Z",), "q0", Push(1, ("X1", "6a"))),
            T("q0", "x", ("X1", "6a"), "q0", Pop(2)),
        ))
    text = mc.render_automaton(a)
    assert "[X1 6a]" in text
    assert mc.parse_automaton(text) == a


HEADER = """levels: 2
states: q0 q1
initial: q0
input: a
store: Z F
start_symbol: Z
"""


def test_parse_example_format():
    a = mc.parse_automaton(HEADER + "t: q0 eps Z -> q0 push 2 F\n"
                                    "t: q0 a ZF -> q1 pop 2\n")
    assert a.levels == 2
    assert a.transitions[0].action == Push(2, ("F",))
    assert a.transitions[1].pattern == ("Z", "F")


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\n" + HEADER + "t: q0 eps Z -> q0 pop 1  # inline\n"
    assert len(mc.parse_automaton(text).transitions) == 1


@pytest.mark.parametrize("line,fragment", [
    ("t: q0 eps Z -> q0 push 3 F", "level 3"),
    ("t: qZ eps Z -> q0 pop 1", "undeclared state"),
    ("t: q0 eps Z -> qZ pop 1", "undeclared state"),
    ("t: q0 zz Z -> q0 pop 1", "undeclared input letter"),
    ("t: q0 eps Q -> q0 pop 1", "pattern"),
    ("t: q0 eps Z q0 pop 1", "->"),
    ("t: q0 eps Z -> q0 shove 1", "pop"),
    ("bogus line without colon", "key: value"),
    ("t: q0 eps [Z F -> q0 pop 2", "unterminated pattern '[Z F'"),
    ("levels: 2", "duplicate 'levels' line"),
    ("bogus: 1", "unknown key 'bogus'"),
    ("t: q0 Z -> q0 pop 1", "expected 'STATE LETTER PATTERN' before '->'"),
    ("t: q0 eps Z -> q0 pop 1 F", "pop takes no symbols"),
])
def test_parse_errors_carry_line_numbers(line, fragment):
    with pytest.raises(mc.AutomatonFormatError) as exc:
        mc.parse_automaton(HEADER + line + "\n")
    assert exc.value.line == 7  # first line after the 6 header lines
    assert fragment in str(exc.value)


def test_parse_missing_header():
    with pytest.raises(mc.AutomatonFormatError):
        mc.parse_automaton("levels: 2\n")


def _header(**values):
    # HEADER with some values replaced, behind a comment line so that no
    # header key sits on line 1.
    lines = ["# test automaton"]
    for line in HEADER.splitlines():
        key = line.split(":")[0]
        lines.append(f"{key}: {values[key]}" if key in values else line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("values,transitions,line,fragment", [
    ({}, "t: q0 eps Z -> q0 pop 1\nt: q0 eps Z -> q0 push 1 Q",
     9, "undeclared push-word symbol 'Q'"),
    ({}, "t: q0 eps ZFF -> q0 pop 1", 8, "pattern length"),
    ({}, "t: q0 eps [] -> q0 pop 1", 8, "pattern length"),
    ({"initial": "qX"}, "", 4, "initial state 'qX' undeclared"),
    ({"start_symbol": "Q"}, "", 7, "start symbol 'Q' undeclared"),
    ({"levels": "0"}, "t: q0 eps Z -> q0 pop 1", 2, "iteration level"),
    ({"levels": "two"}, "", 2, "levels must be an integer"),
    ({"levels": "2 3"}, "", 2, "takes one value"),
    ({"initial": "q0 q1"}, "", 4, "takes one value"),
    ({"store": "Z e"}, "", 6, "reserved for the empty store"),
    ({"store": "Z F A->"}, "", 6, "'->'"),
    ({"states": "q0 q1 a->b"}, "", 3, "'->'"),
    ({"states": "q0 q1 q0"}, "", 3, "state 'q0' declared twice"),
    ({"input": "a a"}, "", 5, "input letter 'a' declared twice"),
    ({"store": "Z F Z"}, "", 6, "store symbol 'Z' declared twice"),
    ({"input": "a eps"}, "", 5, "'eps' is reserved"),
    # Integers are ASCII digits, with no digit groups.
    ({"levels": "\u0662"}, "", 2, "levels must be an integer"),
    ({}, "t: q0 eps Z -> q0 pop 0_1", 8, "action level must be an integer"),
])
def test_malformed_files_fail_at_their_line(values, transitions, line, fragment):
    with pytest.raises(mc.AutomatonFormatError) as exc:
        mc.parse_automaton(_header(**values) + transitions)
    assert exc.value.line == line
    assert fragment in str(exc.value)


@pytest.mark.parametrize("change,where", [
    (dict(levels=0), "levels"),
    (dict(states=("q", "q r")), "states"),
    (dict(states=("q", "")), "states"),
    (dict(input_alphabet=("x#",)), "input"),
    (dict(input_alphabet=("x", "x")), "input"),
    (dict(input_alphabet=("eps",)), "input"),
    (dict(store_alphabet=("Z", "A\u00a0B")), "store"),
    (dict(store_alphabet=("Z", "A.B")), "store"),
    (dict(initial_state="p"), "initial"),
    (dict(initial_symbol="Y"), "start_symbol"),
    (dict(transitions=(T("q", "x", ("Z",), "q", Pop(1)),
                       T("q", "x", ("Z",), "q", Push(1, ("Y",))))), 1),
])
def test_automaton_errors_name_the_part_at_fault(change, where):
    fields = dict(levels=1, states=("q",), initial_state="q",
                  input_alphabet=("x",), store_alphabet=("Z",),
                  initial_symbol="Z", transitions=())
    with pytest.raises(mc.MachineError) as exc:
        Automaton(**{**fields, **change})
    assert exc.value.where == where
