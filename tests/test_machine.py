"""Automaton engine: one-step semantics, bounded search, and the file
format."""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hst

from itpda import grammar as gr
from itpda import machine as mc
from itpda import store as st
from itpda.builders import (Variant, ball_automaton, fibonacci_automaton,
                            sector_automaton, suggested_store_bound)
from itpda.contour import ContourSpec, contour_word, mutate
from itpda.machine import (ACCEPTED, INCONCLUSIVE, REJECTED, Automaton,
                           Configuration, Pop, Push, SearchBounds, Transition)


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


# --- accepts -----------------------------------------------------------------------

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
                     (("x", 1), 1), ("x yyxyy", "yyxyy"), ("xyy x", "xyy")):
        with pytest.raises(mc.UndeclaredLetterError) as err:
            mc.accepts(a, bad)
        assert f"input letter {tok!r} not" in str(err.value), bad
    single = _letters("a", "b")
    for bad, tok in ((("ab", ""), "ab"), (("", "ab"), ""), ("a b\tc", "c"),
                     (("a", "b "), "b ")):
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
        too_tall = least_yield(fib, "q0", x2) > n
        assert too_tall != (most_yield(fib, "q0", x2) < n)
    # Each commit is dropped at once: only the guess loop runs, one
    # configuration per height, until the store bound stops it.
    v = mc.accepts(fib, "a" * n, memoize=False)
    assert v.status == REJECTED
    assert v.yield_cut and v.store_cut
    assert v.configurations == mc.default_bounds(n).max_store_symbols
    # a^5 is accepted at height 4, after heights 0-3 were cut as too short;
    # the one configuration off its witness is the push 2 to height 5.
    five = mc.accepts(fib, "a" * 5, trace=True)
    assert five.status == ACCEPTED and five.yield_cut and not five.store_cut
    assert five.configurations == len(five.trace) + 1


# --- least yields --------------------------------------------------------------------

def least_yield(automaton, state, store):
    """The tables' lower bound on the letters any run from ``state`` reads
    to empty ``store``: the top element from ``state``, the others from
    any state, each into any state; ``1 << 62`` when no run can."""
    tables = automaton._yield_tables(mc._YIELD_CAP - 1)
    nq = len(automaton.states)
    memo = {}
    total = 0
    for i, (sym, flag) in enumerate(store.entries()):
        L, _ = tables.tables[tables.table_id(flag, memo)]
        starts = [state] if i == 0 else automaton.states
        total += min(L[tables.row[q, sym] * nq + j]
                     for q in starts for j in range(nq))
    return min(total, tables.cap)


def most_yield(automaton, state, store):
    """The tables' upper bound on the letters any run from ``state`` reads
    to empty ``store``: the top element from ``state``, the others from
    any state, each into any state; ``1 << 62`` when unbounded and -1
    when no run can."""
    tables = automaton._yield_tables(mc._YIELD_CAP - 1)
    nq = len(automaton.states)
    memo = {}
    total = 0
    for i, (sym, flag) in enumerate(store.entries()):
        _, H = tables.tables[tables.table_id(flag, memo)]
        starts = [state] if i == 0 else automaton.states
        most = max(H[tables.row[q, sym] * nq + j]
                   for q in starts for j in range(nq))
        if most < 0:
            return -1
        total += most
    return min(total, tables.cap)


TREE_BALLS = [(gr.fibonacci(), "W", 5), (gr.polygonal(6), "W", 6),
              (gr.dodecahedral(), "O", 8)]


@pytest.mark.parametrize("system,root,sigma", TREE_BALLS)
def test_least_yield_of_a_tree_root_is_its_level_count(system, root, sigma):
    ball = ball_automaton(system, root, sigma)
    for h in range(7):
        flagged = st.single(root, 2, ["F"] * h)
        assert least_yield(ball, "q0", flagged) == gr.total_count(system, root, h)


@pytest.mark.parametrize("system,root,sigma", TREE_BALLS)
def test_most_yield_of_a_tree_root_is_its_level_count(system, root, sigma):
    # A tree element reads its whole level word whatever run removes it,
    # so the two bounds meet.
    ball = ball_automaton(system, root, sigma)
    for h in range(7):
        flagged = st.single(root, 2, ["F"] * h)
        count = gr.total_count(system, root, h)
        assert most_yield(ball, "q0", flagged) == count
        assert least_yield(ball, "q0", flagged) == count


def _one_level(*transitions, states="p q", store="Z"):
    return mc.parse_automaton(
        f"levels: 1\nstates: {states}\ninitial: {states.split()[0]}\n"
        f"input: a b\nstore: {store}\nstart_symbol: Z\n"
        + "".join(f"t: {t}\n" for t in transitions))


def test_most_yield_is_capped_on_a_cycle_that_reads():
    # Z can read any number of a's before b pops it.  The cap is 2^62, so
    # only a detected cycle, not rounds that climb to the cap, ends this.
    pump = _one_level("p a Z -> p push 1 Z", "p b Z -> p pop 1")
    assert most_yield(pump, "p", pump.initial_store()) == 1 << 62
    assert mc.accepts(pump, "aaab").status == ACCEPTED


def test_most_yield_converges_on_a_cycle_that_reads_nothing():
    spin = _one_level("p eps Z -> q push 1 Z", "q eps Z -> p push 1 Z",
                      "p a Z -> p pop 1")
    for state in ("p", "q"):
        assert most_yield(spin, state, spin.initial_store()) == 1
    assert mc.accepts(spin, "a").status == ACCEPTED
    assert mc.accepts(spin, "aa").status == REJECTED


def test_most_yield_of_a_node_that_pushes_itself_stays_finite():
    # W, pushed in q1, rewrites itself as B W W W W entered in q0, and every
    # element leaves in q0.  Indexed by exit state, W from q1 depends only
    # on W from q0; a maximum over states would feed it back into itself.
    node = _one_level("p eps Z -> q push 1 W", "q eps W -> p push 1 B W W W W",
                      "p a W -> p pop 1", "p b B -> p pop 1", store="Z W B")
    w = st.single("W", 1)
    assert most_yield(node, "q", w) == 5 and least_yield(node, "q", w) == 5
    assert most_yield(node, "p", node.initial_store()) == 5
    # Below the top, an element may be entered in either state.
    www = st.from_pairs(1, [("W", st.empty(0))] * 3)
    assert most_yield(node, "p", www) == 1 + 5 + 5
    assert mc.accepts(node, "baaaa").status == ACCEPTED
    assert mc.accepts(node, "baaaaa").status == REJECTED


def test_least_yield_of_x2_is_fibonacci(fib):
    f = [1, 1]
    while len(f) < 40:
        f.append(f[-1] + f[-2])
    for k in range(40):
        assert least_yield(fib, "q0", st.single("X2", 2, ["F"] * k)) == f[k]
    assert least_yield(fib, "q0", st.empty(2)) == 0


def test_least_yield_lets_an_element_grow_its_flag():
    # A is emptied only after a push 2 gives it a marker to count down, so
    # its yield from p is unknown to the tables and bounded by 0.
    grow = mc.parse_automaton(HEADER.replace("store: Z F", "store: Z A F") +
                              "t: q0 eps Z -> q0 push 1 A\n"
                              "t: q0 eps A -> q1 push 2 F\n"
                              "t: q1 a [A F] -> q1 pop 2\n"
                              "t: q1 a A -> q1 pop 1\n")
    assert least_yield(grow, "q0", st.single("A", 2)) == 0
    assert least_yield(grow, "q1", st.single("A", 2, ["F"])) == 2
    assert mc.accepts(grow, "aa").status == ACCEPTED
    assert mc.enumerate_language(grow, 3) == {("a", "a")}


def test_least_yield_is_capped_when_nothing_empties():
    stuck = Automaton(levels=1, states=("q",), initial_state="q",
                      input_alphabet=("x",), store_alphabet=("Z",),
                      initial_symbol="Z",
                      transitions=(T("q", "x", ("Z",), "q", Push(1, ("Z",))),))
    assert least_yield(stuck, "q", stuck.initial_store()) == 1 << 62
    v = mc.accepts(stuck, "xxx")
    assert (v.status, v.configurations, v.yield_cut) == (REJECTED, 1, True)


def test_yield_tables_walk_flags_deeper_than_the_recursion_limit(fib):
    # a^300 guesses heights up to its store bound, 1,216 symbols.
    bounds = mc.default_bounds(300)
    assert bounds.max_store_symbols > sys.getrecursionlimit()
    v = mc.accepts(fib, "a" * 300, bounds, memoize=False)
    assert v.status == REJECTED and v.store_cut
    deep = st.single("X2", 2, ["F"] * (sys.getrecursionlimit() + 500))
    assert least_yield(fibonacci_automaton(), "q0", deep) == 1 << 62


GUESS = ("t: g eps Z -> g push 2 F\n" "t: g eps [Z F] -> g push 2 F\n"
         "t: g eps Z -> c push 1 Z\n" "t: g eps [Z F] -> c push 1 Z\n")


def _guesser(*transitions):
    return mc.parse_automaton(
        "levels: 2\nstates: g c d\ninitial: g\ninput: a b\nstore: Z F\n"
        "start_symbol: Z\n" + GUESS + "".join(f"t: {t}\n" for t in transitions))


def test_yield_tables_stop_at_the_cap_on_linear_yields():
    # Each pop 2 reads a letter, so Z[F^d] yields d + 1 from c: the guess
    # loop grows its flag to the store bound, 820 symbols, but the tables
    # stop once the yields reach the cap, 256 for this input.
    linear = _guesser("c a [Z F] -> c pop 2", "c a Z -> c pop 1")
    word = "a" * 200 + "b"
    assert mc.default_bounds(len(word)).max_store_symbols == 820
    v = mc.accepts(linear, word)
    assert v.status == REJECTED and v.store_cut and v.yield_cut
    tables = linear._yields
    assert tables.cap == 256 and len(tables.tables) <= 256
    assert mc.accepts(linear, "a" * 200).status == ACCEPTED
    assert least_yield(linear, "c", st.single("Z", 2, ["F"] * 300)) == 301


def test_yield_tables_that_repeat_are_shared():
    # pop 2 alternates c and d and only c pays to pop Z, so the tables
    # of Z[F^d] alternate with the parity of d.
    parity = _guesser("c eps [Z F] -> d pop 2", "d eps [Z F] -> c pop 2",
                      "c a Z -> c pop 1", "d eps Z -> d pop 1")
    for word, status in (("a", ACCEPTED), ("", ACCEPTED), ("aa", REJECTED),
                         ("a" * 200, REJECTED)):
        assert mc.accepts(parity, word).status == status
        assert len(parity._yields.tables) == 2
    for d in (2, 3, 1500):
        assert least_yield(parity, "c", st.single("Z", 2, ["F"] * d)) == (d + 1) % 2


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
    assert len(shared._yields.tables) == 1


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
        trace = v.trace
        first, _ = trace[0]
        assert first == automaton.initial_configuration()
        last, last_tid = trace[-1]
        assert last_tid is None
        assert last.position == len(word) and last.store.size == 0
        for (cfg, tid), (nxt, _) in zip(trace, trace[1:]):
            assert (nxt, tid) in mc.step(automaton, cfg, word)


def test_trace_absent_unless_requested(fib):
    assert mc.accepts(fib, "aaa").trace is None


# --- tree-walk exploration ------------------------------------------------------------

# (system, root, kind, sigma, level, letters, configurations, witness
# length, configurations of the 5 mutants of mutate(word, 7, 5)).
TREE_WALKS = [
    (gr.cell120, "9", "sector", 1, 2, 13_090, 13_329, 13_328,
     [729, 729, 9667, 729, 729]),
    (lambda: gr.polygonal(7), "W", "ball", 7, 4, 3_857, 5_894, 5_893,
     [135] * 5),
    (gr.fibonacci, "W", "sector", 1, 6, 390, 867, 866,
     [107, 107, 724, 107, 107]),
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
    for memoize in (True, False):
        v = mc.accepts(automaton, word, bounds, memoize=memoize)
        assert (v.status, v.configurations) == (ACCEPTED, configs)
    trace = mc.accepts(automaton, word, bounds, trace=True).trace
    assert len(trace) == witness
    for (cfg, tid), (nxt, _) in zip(trace, trace[1:]):
        assert (nxt, tid) in mc.step(automaton, cfg, word)
    variants = mutate(word, 7, 5, alphabet=automaton.input_alphabet)
    counts = []
    for mutant in variants:
        v = mc.accepts(automaton, mutant, bounds, memoize=False)
        assert v.status == REJECTED
        counts.append(v.configurations)
    assert counts == mutants


# --- segment summaries -----------------------------------------------------------------

# (system, root, kind, sigma, level, smallest accepting store bound,
# configurations rejected one below it, configurations of the accepting run).
BOUND_EDGES = [
    (lambda: gr.polygonal(6), "W", "ball", 6, 3, 36, 41, 582),
    (gr.cell120, "9", "sector", 1, 2, 346, 349, 13_329),
    (gr.fibonacci, "W", "sector", 1, 6, 35, 53, 867),
]


@pytest.mark.parametrize("memoize", [True, False])
@pytest.mark.parametrize("case", BOUND_EDGES, ids=["poly6", "cell120", "fib"])
def test_bounds_are_exact_at_their_edges(case, memoize):
    # A later copy of a subtree can sit on a taller store than the first,
    # and the budget can run out inside it, so a jump must stop at exactly
    # the bounds at which the step-by-step walk stops.
    make, root, kind, sigma, level, smallest, cut_at, configs = case
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


class _CountingStore(st.Store):
    built = 0
    __slots__ = ()

    def __init__(self, *args):
        _CountingStore.built += 1
        super().__init__(*args)


def test_repeated_subtrees_are_walked_once():
    # Every copy of a (label, height) subtree after the first is matched
    # against the input in one comparison, so the search builds store
    # nodes for a few copies only, though it counts every configuration.
    system = gr.polygonal(7)
    automaton = ball_automaton(system, "W", 7)
    word = contour_word(ContourSpec(system, "W", sigma=7, kind="ball"), 6)
    bounds = SearchBounds(suggested_store_bound(system, 7, 6), 10 ** 7)
    for memoize in (True, False):
        _CountingStore.built = 0
        with mock.patch.object(mc, "Store", _CountingStore):
            v = mc.accepts(automaton, word, bounds, memoize=memoize)
        assert v.status == ACCEPTED
        assert v.configurations > 10 ** 5
        assert _CountingStore.built < v.configurations // 100


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


def test_jumps_keep_what_the_memo_would_remember_and_prune():
    # The path through the copy goes first.  (w, 1, B.Y) is the 8th
    # configuration after the branch point, so the memo remembers it, and
    # the other path is pruned there: the copy must be walked.
    first = _two_paths("s eps Z -> p push 1 Z", "s eps Z -> r push 1 Z",
                       "p eps Z -> p2 push 1 Z", "p2 eps Z -> p3 push 1 Z",
                       "p3 eps Z -> p4 push 1 Z", "p4 eps Z -> w push 1 A A Y",
                       states="p p2 p3 p4")
    # The other path goes first and leaves (w, 1, B.Y) remembered, so the
    # copy is pruned there: it must be walked again.
    second = _two_paths("s eps Z -> r push 1 Z", "s eps Z -> p push 1 Z",
                        "p eps Z -> w push 1 A A Y", states="p")
    for automaton, memo_count, count in ((first, 11, 13), (second, 8, 10)):
        for memoize, expected in ((True, memo_count), (False, count)):
            v = mc.accepts(automaton, "aab", memoize=memoize)
            assert (v.status, v.configurations) == (REJECTED, expected)


def test_jumps_keep_the_first_parent_of_a_pending_configuration():
    # The branch point's second successor (w, 1, B.Y) waits on the stack
    # while the first path's copy of A passes through it.  The witness
    # reaches it from the branch point, its first parent.
    pending = _two_paths("s eps Z -> w push 1 A A Y", "s a Z -> w push 1 B Y",
                         states="")
    for memoize in (True, False):
        v = mc.accepts(pending, "aac", trace=True, memoize=memoize)
        assert v.status == ACCEPTED
        assert [(c.state, c.position, st.render(c.store)) for c, _ in v.trace] \
            == [("s", 0, "Z"), ("w", 1, "B.Y"), ("w", 2, "Y"), ("w", 3, "e")]


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
    automaton, word = _taller_copy()
    for memoize in (True, False):
        cut = mc.accepts(automaton, word, SearchBounds(10, 10 ** 4),
                         memoize=memoize)
        assert (cut.status, cut.configurations, cut.store_cut) \
            == (REJECTED, 23, True)
        v = mc.accepts(automaton, word, SearchBounds(11, 10 ** 4),
                       memoize=memoize)
        assert (v.status, v.configurations) == (ACCEPTED, 56)


def test_a_cap_on_open_segments_changes_no_count():
    # Past the cap a chain walk opens no more segments, so it records
    # fewer summaries, but it still folds every store into the high-water
    # marks of the segments that are open.
    automaton, word = _taller_copy()
    for cap in range(1, 8):
        with mock.patch.object(mc, "_MAX_OPEN_SEGMENTS", cap):
            for store, status, configs in ((10, REJECTED, 23),
                                           (11, ACCEPTED, 56)):
                v = mc.accepts(automaton, word, SearchBounds(store, 10 ** 4),
                               memoize=False)
                assert (v.status, v.configurations) == (status, configs)


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


def test_reachable_rejects_stores_of_another_level(fib):
    ok = Configuration("q0", 0, st.single("X1", 2))
    for bad in (st.single("X1", 1), st.single("X1", 3, ["F"])):
        wrong = Configuration("q0", 0, bad)
        with pytest.raises(mc.MachineError):
            mc.reachable(fib, wrong, ok, "a")
        with pytest.raises(mc.MachineError):
            mc.reachable(fib, ok, wrong, "a")


# --- enumerate_language ------------------------------------------------------------------------

def test_enumerate_language_fibonacci(fib):
    lang = mc.enumerate_language(fib, 9)
    assert {len(w) for w in lang} == {1, 2, 3, 5, 8}


def test_enumerate_language_budget_error(fib):
    with pytest.raises(mc.SearchLimitError):
        mc.enumerate_language(fib, 9, SearchBounds(60, 10))


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
