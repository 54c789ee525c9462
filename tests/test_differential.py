"""Differential testing of the acceptance search against a reference BFS.

The reference is deliberately naive: breadth-first, one visited set over
the whole search, no yield bound, and the public ``store.push``/
``store.pop`` in place of the kernel's inlined opcodes.  Hypothesis draws
small 1-, 2- and 3-level automata and short words; the default
``accepts`` must agree with it and, on rejections, do at most a few times
its work; ``memoize=False`` must agree or give up; ``enumerate_language``
must list the words it accepts.  The upper yield bound is checked against
the reference on its own, and every configuration of a run that empties
its store within a few letters, whichever they are, must have between
the least and the most yield of its store left to read.  Drawn automata
must survive a render/parse round trip and keep every acceptance under a
larger store bound.  With their letters renamed to nested and odd names,
they must read a word alike as a tuple, as ``format_word``'s text and as
a text with mixed whitespace, name its first undeclared token, and
enumerate words of their own letters.  Names drawn from the characters
the text format gives a meaning to must be rejected by ``Automaton`` or
survive the round trip too.  On the tree walks of random substitution systems, the search
must give the same verdict, count and witness when it refuses every jump
over a repeated segment.
"""

import dataclasses
import itertools
from collections import deque
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as hst

from itpda import machine as mc
from itpda import store as st
from itpda.builders import ball_automaton, suggested_store_bound
from itpda.contour import ContourSpec, contour_word, mutate
from itpda.grammar import SubstitutionSystem, format_word
from itpda.machine import (ACCEPTED, INCONCLUSIVE, REJECTED, Automaton,
                           Pop, Push, SearchBounds, Transition)

STATES = ("q0", "q1", "q2")
LETTERS = ("a", "b")
SYMBOLS = ("Z", "A", "B")
MAX_STORE = 6


def reference_steps(automaton, state, store, max_store):
    """(letter, target, store) for every transition that fires in
    ``state`` on ``store`` and leaves at most ``max_store`` symbols."""
    for t in automaton.transitions:
        if t.state != state or t.pattern != st.topsym(store):
            continue
        if isinstance(t.action, Push):
            nstore = st.push(t.action.level, t.action.word, store)
        else:
            nstore = st.pop(t.action.level, store)
        if nstore is not None and nstore.size <= max_store:
            yield t.letter, t.target, nstore


def reference_accepts(automaton, word, max_store):
    """(ACCEPTED, None) iff some run reads ``word`` and empties the store
    while every store on the way holds at most ``max_store`` symbols;
    otherwise (REJECTED, the number of configurations visited)."""
    start = (automaton.initial_state, 0, automaton.initial_store())
    visited = {start}
    queue = deque([start])
    while queue:
        state, pos, store = queue.popleft()
        if pos == len(word) and store.size == 0:
            return ACCEPTED, None
        for letter, target, nstore in reference_steps(automaton, state, store,
                                                      max_store):
            if letter is None:
                npos = pos
            elif pos < len(word) and word[pos] == letter:
                npos = pos + 1
            else:
                continue
            ncfg = (target, npos, nstore)
            if ncfg not in visited:
                visited.add(ncfg)
                queue.append(ncfg)
    return REJECTED, len(visited)


def reference_runs(automaton, starts, max_letters, max_store):
    """Every configuration (state, letters read, store) of a run from one
    of ``starts``, (state, store) pairs, that reads at most
    ``max_letters`` letters, whichever they are, and empties the store
    within ``max_store`` symbols, with the letters that run reads in all.
    From the initial configuration, these totals are the lengths of the
    accepted words."""
    parents = {(state, 0, store): set() for state, store in starts}
    queue = deque(parents)
    ends = []
    while queue:
        cfg = queue.popleft()
        state, read, store = cfg
        if store.size == 0:
            ends.append(cfg)
        for letter, target, nstore in reference_steps(automaton, state, store,
                                                      max_store):
            ncfg = (target, read + (letter is not None), nstore)
            if ncfg[1] <= max_letters:
                if ncfg not in parents:
                    parents[ncfg] = set()
                    queue.append(ncfg)
                parents[ncfg].add(cfg)
    for end in ends:
        seen, todo = {end}, [end]
        while todo:
            cfg = todo.pop()
            yield cfg, end[1]
            todo.extend(parents[cfg] - seen)
            seen |= parents[cfg]


# The recognizers' shape: guess a height on Z's flag, then commit to an
# element that carries it, in another state.
GUESS_LOOP = (
    Transition("q0", None, ("Z",), "q0", Push(2, ("A",))),
    Transition("q0", None, ("Z", "A"), "q0", Push(2, ("A",))),
    Transition("q0", None, ("Z",), "q1", Push(1, ("B",))),
    Transition("q0", None, ("Z", "A"), "q1", Push(1, ("B",))),
)


@hst.composite
def automata(draw, max_levels=3, guess=False):
    """Random automata; with ``guess``, 2-level ones that start with
    ``GUESS_LOOP`` and whose other transitions walk A and B from q1 and q2."""
    levels = 2 if guess else draw(hst.integers(1, max_levels))
    states = STATES if guess else STATES[:draw(hst.integers(1, len(STATES)))]
    walk = STATES[1:] if guess else states
    symbol = hst.sampled_from(SYMBOLS[1:] if guess else SYMBOLS)

    def action():
        level = draw(hst.integers(1, levels))
        if draw(hst.booleans()):
            return Pop(level)
        return Push(level, tuple(draw(hst.lists(symbol, max_size=2))))

    transitions = (GUESS_LOOP if guess else ()) + tuple(
        Transition(draw(hst.sampled_from(walk)),
                   draw(hst.sampled_from((None,) + LETTERS)),
                   tuple(draw(hst.lists(symbol, min_size=1, max_size=levels))),
                   draw(hst.sampled_from(walk)),
                   action())
        for _ in range(draw(hst.integers(*((4, 10) if guess else (1, 8))))))
    return Automaton(levels=levels, states=states, initial_state="q0",
                     input_alphabet=LETTERS, store_alphabet=SYMBOLS,
                     initial_symbol="Z", transitions=transitions)


@settings(deadline=None, max_examples=300)
@given(automata(), hst.lists(hst.sampled_from(LETTERS), max_size=4))
def test_accepts_agrees_with_reference_bfs(automaton, word):
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    verdict = mc.accepts(automaton, word, bounds, trace=True)
    status, visited = reference_accepts(automaton, word, MAX_STORE)
    assert verdict.status == status
    if status == REJECTED:
        # Both searches explored everything; the kernel may walk a path
        # again up to a remembered configuration, but never multiply work.
        assert verdict.configurations <= 4 * visited
    if verdict.status == ACCEPTED:
        steps = verdict.trace
        for (cfg, tid), (nxt, _) in zip(steps, steps[1:]):
            assert (nxt, tid) in mc.step(automaton, cfg, word)


@settings(deadline=None, max_examples=200)
@given(automata(), hst.lists(hst.sampled_from(LETTERS), max_size=4))
def test_unmemoized_accepts_agrees_or_gives_up(automaton, word):
    bounds = SearchBounds(MAX_STORE, 10 ** 4)
    verdict = mc.accepts(automaton, word, bounds, memoize=False)
    status, _ = reference_accepts(automaton, word, MAX_STORE)
    assert verdict.status in (status, INCONCLUSIVE)


@settings(deadline=None, max_examples=100)
@given(automata())
def test_enumeration_lists_the_accepted_words(automaton):
    words = [w for n in range(4) for w in itertools.product(LETTERS, repeat=n)]
    expected = {w for w in words
                if reference_accepts(automaton, w, MAX_STORE)[0] == ACCEPTED}
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    assert mc.enumerate_language(automaton, 3, bounds) == expected


# Letter names, nested in one another or odd, for renamed automata; the
# letters' codes include "\x01" whenever it is not itself a letter.
LETTER_NAMES = ("a", "b", "ab", "ba", "aab", "\x01")
SPACES = (" ", "\t", "\n", "  ", " \n\t ", "\r\n")


@hst.composite
def renamed(draw):
    """(automaton, the same automaton with letters renamed injectively
    from ``LETTER_NAMES``, the renaming)."""
    automaton = draw(automata())
    names = dict(zip(LETTERS, draw(hst.permutations(LETTER_NAMES))))
    return automaton, dataclasses.replace(
        automaton, input_alphabet=tuple(names[x] for x in LETTERS),
        transitions=tuple(dataclasses.replace(t, letter=names.get(t.letter))
                          for t in automaton.transitions)), names


def spaced_out(draw, word):
    """``word`` with a run of whitespace drawn around every token."""
    seps = draw(hst.lists(hst.sampled_from(SPACES), min_size=len(word) + 1,
                          max_size=len(word) + 1))
    return seps[0] + "".join(tok + sep for tok, sep in zip(word, seps[1:]))


@settings(deadline=None, max_examples=300)
@given(renamed(), hst.lists(hst.sampled_from(LETTERS), max_size=4), hst.data())
def test_renamed_letters_read_alike_in_every_form(case, letters, data):
    # The token tuple, format_word's text and a text with mixed whitespace
    # give the verdict of the automaton before renaming, trace and all.
    automaton, named, names = case
    word = tuple(names[x] for x in letters)
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    want = mc.accepts(automaton, letters, bounds, trace=True)
    for given_word in (word, format_word(word), spaced_out(data.draw, word)):
        got = mc.accepts(named, given_word, bounds, trace=True)
        assert ((got.status, got.configurations, got.store_cut, got.yield_cut,
                 got.trace)
                == (want.status, want.configurations, want.store_cut,
                    want.yield_cut, want.trace)), given_word


@settings(deadline=None, max_examples=200)
@given(renamed(), hst.lists(hst.sampled_from(LETTERS), max_size=3), hst.data())
def test_first_undeclared_token_is_named(case, letters, data):
    # Undeclared: the other names, and the codes of the longer letters.
    _, named, names = case
    codes = named._codes.code
    bad = data.draw(hst.sampled_from(sorted(
        {*LETTER_NAMES, *codes.values()} - set(named.input_alphabet))))
    word = [names[x] for x in letters]
    word.insert(data.draw(hst.integers(0, len(word))), bad)
    word += data.draw(hst.lists(hst.sampled_from(LETTER_NAMES), max_size=2))
    forms = [tuple(word), iter(word)]
    if len(word) > 1:  # a one-part text may be a run of one-character letters
        forms += [" ".join(word), spaced_out(data.draw, word)]
    for given_word in forms:
        with pytest.raises(mc.UndeclaredLetterError) as err:
            mc.accepts(named, given_word)
        assert f"input letter {bad!r} not in alphabet" in str(err.value)


@settings(deadline=None, max_examples=100)
@given(renamed())
def test_enumeration_lists_renamed_letters(case):
    automaton, named, names = case
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    words = mc.enumerate_language(named, 3, bounds)
    assert words == {tuple(names[x] for x in w)
                     for w in mc.enumerate_language(automaton, 3, bounds)}
    assert all(tok in named.input_alphabet for w in words for tok in w)


@settings(deadline=None, max_examples=300)
@given(hst.one_of(automata(max_levels=2), automata(guess=True)),
       hst.integers(0, 6).flatmap(lambda k: hst.lists(
           hst.sampled_from(LETTERS), min_size=k, max_size=k)))
def test_upper_yield_cut_agrees_with_reference_bfs(automaton, word):
    # The same search with the most-yield test switched off tells whether
    # the upper bound cut anything; it may only save work.
    bounds = SearchBounds(MAX_STORE, 10 ** 5)
    verdict = mc.accepts(automaton, word, bounds)
    with mock.patch.object(mc._YieldTables, "most",
                           lambda *args: mc._YIELD_CAP):
        lower_only = mc.accepts(automaton, word, bounds)
    status, _ = reference_accepts(automaton, word, MAX_STORE)
    assert verdict.status == lower_only.status == status
    if status == REJECTED:
        assert verdict.configurations <= lower_only.configurations
    shape = ("guess loop" if automaton.transitions[:4] == GUESS_LOOP
             else f"{automaton.levels}-level")
    cut = verdict.configurations < lower_only.configurations
    event(f"{shape}: upper cut {'fired' if cut else 'saved nothing'}")


def yield_bounds(automaton, state, store):
    """The fewest and the most letters that the yield tables allow a run
    from ``state`` to read while it empties ``store``: the top element
    from ``state``, the others from any state, each into any state.  Both
    are read from the table of each element's flag."""
    tables = automaton._yield_tables(mc._YIELD_CAP - 1)
    nq = len(automaton.states)
    memo = {}
    low = high = 0
    for i, (sym, flag) in enumerate(store.entries()):
        L, H = tables.tables[tables.table_id(flag, memo)]
        cells = [tables.row[q, sym] * nq + j for j in range(nq)
                 for q in ([state] if i == 0 else automaton.states)]
        low += min(L[c] for c in cells)
        most = max(H[c] for c in cells)
        high = -1 if most < 0 or high < 0 else high + most
    return low, high


# A leaves in q1 or q2, and B, read next, leaves in q2 after one letter
# from q1 or none from q2: the least yield of Z takes the cheaper path.
TWO_PATHS = Automaton(
    levels=1, states=STATES, initial_state="q0", input_alphabet=LETTERS,
    store_alphabet=SYMBOLS, initial_symbol="Z",
    transitions=(Transition("q0", None, ("Z",), "q1", Push(1, ("A", "B"))),
                 Transition("q1", None, ("A",), "q1", Pop(1)),
                 Transition("q1", None, ("A",), "q2", Pop(1)),
                 Transition("q1", "a", ("B",), "q2", Pop(1)),
                 Transition("q2", None, ("B",), "q2", Pop(1))))


@settings(deadline=None, max_examples=200)
@given(hst.one_of(automata(max_levels=2), automata(guess=True)))
@example(TWO_PATHS)
def test_runs_read_within_the_yield_bounds(automaton):
    # The tables count letters, not which letters they are.  Every
    # configuration of a run that empties the store has between the least
    # and the most yield of its store left to read.  The runs start from
    # the initial configuration, so every accepted word of up to 4 letters
    # has a length between the two, and from every one-element store whose
    # flag holds at most one symbol.
    flags = [()] + [(s,) for s in SYMBOLS] if automaton.levels == 2 else [()]
    starts = [(state, st.single(sym, automaton.levels, flag))
              for state in automaton.states for sym in SYMBOLS
              for flag in flags]
    checked = 0
    for (state, read, store), total in reference_runs(automaton, starts, 4,
                                                       MAX_STORE):
        low, high = yield_bounds(automaton, state, store)
        assert low <= total - read <= high, (state, read, store, total)
        checked += 1
    event("no run empties a store" if not checked else
          f"{'under' if checked < 100 else 'at least'} 100 configurations checked")


@settings(deadline=None, max_examples=200)
@given(automata())
def test_render_parse_round_trip(automaton):
    text = mc.render_automaton(automaton)
    assert mc.parse_automaton(text) == automaton


# Plain names, reserved ones, and strings of the characters the text
# format gives a meaning to.
NAMES = hst.one_of(hst.sampled_from(("q", "Z", "a", "A1", "e", "eps", "-", ">")),
                   hst.text("qZ->#.[]: \n", max_size=3))


@hst.composite
def named_fields(draw):
    """Keyword arguments of a small ``Automaton`` whose names come from
    ``NAMES``; they need not make a well-formed one."""
    levels = draw(hst.integers(1, 2))
    states = draw(hst.lists(NAMES, min_size=1, max_size=2))
    letters = draw(hst.lists(NAMES, max_size=2))
    symbols = draw(hst.lists(NAMES, min_size=1, max_size=3))
    symbol, level = hst.sampled_from(symbols), hst.integers(1, levels)
    action = hst.builds(Pop, level) | hst.builds(
        Push, level, hst.lists(symbol, max_size=2).map(tuple))
    transitions = hst.lists(hst.builds(
        Transition, hst.sampled_from(states), hst.sampled_from([None, *letters]),
        hst.lists(symbol, min_size=1, max_size=levels).map(tuple),
        hst.sampled_from(states), action), max_size=4)
    return dict(levels=levels, states=tuple(states), initial_state=states[0],
                input_alphabet=tuple(letters), store_alphabet=tuple(symbols),
                initial_symbol=symbols[0], transitions=tuple(draw(transitions)),
                name=draw(hst.text("ab #\n", max_size=4)))


@settings(deadline=None, max_examples=200)
@given(named_fields())
@example(dict(levels=2, states=("q",), initial_state="q", input_alphabet=(),
              store_alphabet=("-", ">"), initial_symbol="-",
              transitions=(Transition("q", None, ("-", ">"), "q", Pop(1)),),
              name="two\nlines"))
def test_names_are_rejected_or_survive_render_parse(fields):
    try:
        automaton = Automaton(**fields)
    except mc.MachineError as exc:
        event(f"rejected at {exc.where!r}")
        return
    event("built")
    assert mc.parse_automaton(mc.render_automaton(automaton)) == automaton


@settings(deadline=None, max_examples=200)
@given(automata(), hst.lists(hst.sampled_from(LETTERS), max_size=4),
       hst.integers(0, MAX_STORE), hst.integers(1, 4))
def test_raising_the_store_bound_keeps_acceptance(automaton, word, small,
                                                   extra):
    budget = 10 ** 5
    low = mc.accepts(automaton, word, SearchBounds(small, budget))
    high = mc.accepts(automaton, word, SearchBounds(small + extra, budget))
    if low.status == ACCEPTED:
        assert high.status != REJECTED


@hst.composite
def trees(draw):
    """The ball recognizer of a random substitution system over the labels
    A, B and C, a contour word of it, as is or with one edit, and bounds:
    a store bound up to the one the builders suggest, and a budget."""
    labels = ("A", "B", "C")
    label = hst.sampled_from(labels)
    root, sigma, level = (draw(label), draw(hst.integers(1, 3)),
                          draw(hst.integers(0, 4)))
    system = SubstitutionSystem(
        "drawn", labels,
        {x: tuple(draw(hst.lists(label, min_size=1, max_size=3)))
         for x in labels},
        {x: draw(hst.sampled_from(LETTERS)) for x in labels}, (sigma,))
    automaton = ball_automaton(system, root, sigma)
    word = contour_word(ContourSpec(system, root, sigma=sigma), level)
    if draw(hst.booleans()):
        word = mutate(word, draw(hst.integers(0, 99)), 1, LETTERS)[0]
    # Store bounds up to the suggested one, and small budgets, put the
    # bounds inside jumped copies as well as between them.
    suggested = suggested_store_bound(system, sigma, level)
    store = draw(hst.one_of(hst.just(suggested), hst.integers(0, suggested)))
    budget = draw(hst.one_of(hst.just(10 ** 4),
                             hst.integers(1, 3 * len(word) + 9)))
    return automaton, word, SearchBounds(store, budget)


class _Word(tuple):
    """An input word that counts the comparisons of its slices, by which
    the search matches a copy of a segment against a summary's letters;
    with ``match=False`` no comparison succeeds, so every copy is walked
    step by step."""

    def __new__(cls, letters, match=True):
        word = super().__new__(cls, letters)
        word.match, word.compared = match, 0
        return word

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.compared += 1
            if not self.match:
                return object()  # equal to nothing
        return super().__getitem__(i)


@settings(deadline=None, max_examples=300)
@given(trees(), hst.booleans())
def test_segment_jumps_change_nothing(case, memoize):
    # A jump over a copy of a segment must leave the verdict, its flags,
    # the configuration count and the witness as walking the copy would.
    automaton, word, bounds = case
    start = (automaton.initial_state, 0, automaton.initial_store())
    jumping = _Word(word)
    jumped, walked = (
        mc._search(automaton, w, start, None, bounds, True, memoize)
        for w in (jumping, _Word(word, match=False)))
    assert ((jumped.status, jumped.configurations, jumped.store_cut,
             jumped.yield_cut, jumped.trace)
            == (walked.status, walked.configurations, walked.store_cut,
                walked.yield_cut, walked.trace))
    event(f"memoize={memoize}: "
          f"{'a copy was compared' if jumping.compared else 'no copy'}")


def test_epsilon_cycle_decided_at_once():
    # The push 1 Z step rewrites Z as Z: a store-preserving epsilon-cycle.
    automaton = mc.parse_automaton(
        "levels: 1\nstates: q0\ninitial: q0\ninput: a\nstore: Z\n"
        "start_symbol: Z\n"
        "t: q0 eps Z -> q0 push 1 Z\n"
        "t: q0 a Z -> q0 pop 1\n")
    for word, status in (("", REJECTED), ("a", ACCEPTED), ("aa", REJECTED)):
        verdict = mc.accepts(automaton, word)
        assert verdict.status == status, word
        assert verdict.configurations <= 2, word


def test_epsilon_cycle_without_branch_point_is_closed():
    # p -> q -> r -> p keeps the store: each state has one epsilon-step.
    # No run empties the store, so accepts would drop the first push by
    # the yield bound; reachable searches without it.
    cycle = _unary("s eps Z -> p push 1 Z", "p eps Z -> q push 1 Z",
                   "q eps Z -> r push 1 Z", "r eps Z -> p push 1 Z",
                   states="s p q r")
    verdict = mc.reachable(cycle, cycle.initial_configuration(),
                           mc.Configuration("p", 0, st.empty(1)), "")
    assert verdict.status == REJECTED
    assert verdict.configurations <= 2 * 4


def test_path_meeting_another_is_pruned_at_its_next_remembered_step():
    # From the branch point s, path a reaches (m, 0, Z) in 3 steps and path
    # b in 2, then both would read the same a^n.  Path a remembers its 1st,
    # 2nd, 4th, ... configuration; b meets a at a's 3rd and is pruned at
    # a's 4th, (m, 1, Z), one configuration more than a full memo table.
    # Only b empties the store, so the yield bound drops just the push
    # after the last letter: n + 4 configurations with a full memo table.
    meet = _unary("s eps Z -> a1 push 1 Z", "s eps Z -> b1 push 1 Z",
                  "a1 eps Z -> a2 push 1 Z", "a2 eps Z -> m push 1 Z",
                  "b1 eps Z -> m push 1 Z", "m a Z -> m push 1 Z",
                  "m b Z -> m pop 1", states="s a1 a2 b1 m")
    for n in (10, 100):
        verdict = mc.accepts(meet, "a" * n)
        assert verdict.status == REJECTED
        assert verdict.configurations == (n + 4) + 1


def _unary(*transitions, levels=1, states="p q"):
    return mc.parse_automaton(
        f"levels: {levels}\nstates: {states}\ninitial: {states.split()[0]}\n"
        "input: a b\nstore: Z F\nstart_symbol: Z\n"
        + "".join(f"t: {t}\n" for t in transitions))


def test_converging_paths_are_explored_once():
    # Counts are those of a search that remembers every configuration.
    # Each automaton can empty its store only by reading b, which the
    # input a^n lacks, so the yield bound cuts just the last steps.
    # Two states reading a into either one: 2 configurations per letter,
    # but q needs 2 letters more and p 1.
    both = _unary("p a Z -> p push 1 Z", "p a Z -> q push 1 Z",
                  "q a Z -> p push 1 Z", "q a Z -> q push 1 Z",
                  "p b Z -> p pop 1")
    for n, count in ((16, 30), (24, 46)):
        verdict = mc.accepts(both, "a" * n)
        assert (verdict.status, verdict.configurations) == (REJECTED, count)
    # Two branches that meet again two epsilon-steps after each letter;
    # after the last letter both need one more.
    diamond = _unary("b a Z -> x1 push 1 Z", "b a Z -> y1 push 1 Z",
                     "x1 eps Z -> x2 push 1 Z", "x2 eps Z -> b push 1 Z",
                     "y1 eps Z -> y2 push 1 Z", "y2 eps Z -> b push 1 Z",
                     "b b Z -> b pop 1", states="b x1 x2 y1 y2")
    for n, count in ((8, 36), (16, 76)):
        verdict = mc.accepts(diamond, "a" * n)
        assert (verdict.status, verdict.configurations) == (REJECTED, count)
    # Epsilon-pops into either state: 2 configurations per popped Z.
    pops = _unary("p eps Z -> p pop 1", "p eps Z -> q pop 1",
                  "q eps Z -> p pop 1", "q eps Z -> q pop 1")
    for k in (8, 16):
        zs = st.from_pairs(1, [("Z", st.empty(0))] * k)
        more = st.from_pairs(1, [("Z", st.empty(0))] * (k + 1))
        verdict = mc.reachable(pops, mc.Configuration("p", 0, zs),
                               mc.Configuration("p", 0, more), "")
        assert (verdict.status, verdict.configurations) == (REJECTED, 2 * k + 1)
    # After one letter, guess a height, count it down with epsilon-steps
    # and read on: every guess meets the one before at its first step.
    guesses = _unary("s a Z -> g push 1 Z",
                     "g eps Z -> g push 2 F", "g eps Z -> c push 1 Z",
                     "g eps [Z F] -> g push 2 F", "g eps [Z F] -> c push 1 Z",
                     "c eps [Z F] -> c pop 2", "c a Z -> c push 1 Z",
                     "c b Z -> c pop 1", levels=2, states="s g c")
    for n, count in ((100, 931), (400, 3631)):
        verdict = mc.accepts(guesses, "a" * n)
        assert (verdict.status, verdict.configurations) == (REJECTED, count)
