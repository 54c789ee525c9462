"""k-iterated pushdown automata and their bounded acceptance search.

An automaton reads input tokens while rewriting a k-level iterated store
(see :mod:`itpda.store`).  A transition fires when its state matches, its
input item is epsilon or the next unread token, and its topsym pattern
equals the store's visible symbol chain exactly (a pattern shorter than k
therefore requires the corresponding inner stores to be empty).  A word is
accepted when some computation reaches input exhausted + store empty, in
any state.

Because epsilon push loops make the raw configuration graph infinite, the
search is bounded.  ``max_store_symbols`` prunes configurations whose
store grows past the bound; a search that exhausts the pruned graph
without finding acceptance reports Rejected.  ``max_configurations`` is a
hard effort budget: exceeding it reports Inconclusive, since unexplored
configurations might still accept.  Enlarging the store bound can only
move verdicts toward the true language, never flip Accepted to Rejected
or vice versa on words whose accepting runs fit the bound.

The search is depth-first and expands transitions in declaration order,
so verdicts and witness traces are deterministic.  Every configuration
it generates is looked up among those it remembers, but it remembers
only the ones at which it can branch and a few on each path between
them (see ``_search``).  No work is multiplied, every cycle is closed,
and tree walks search in memory proportional to their depth, not to
the configurations visited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from . import store as st
from .grammar import parse_word
from .store import Store

ACCEPTED = "accepted"
REJECTED = "rejected"
INCONCLUSIVE = "inconclusive"

Word = tuple[str, ...]


class MachineError(ValueError):
    """Ill-formed automaton."""


class UndeclaredLetterError(MachineError):
    """Input contains a letter outside the automaton's alphabet."""


class SearchLimitError(RuntimeError):
    """An enumeration exceeded its configuration budget."""


class AutomatonFormatError(MachineError):
    """Malformed automaton file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Pop:
    level: int

    def __str__(self):
        return f"pop {self.level}"


@dataclass(frozen=True)
class Push:
    level: int
    word: Word

    def __str__(self):
        return " ".join([f"push {self.level}", *self.word]).rstrip()


Action = Union[Pop, Push]


@dataclass(frozen=True)
class Transition:
    state: str
    letter: Optional[str]  # None = epsilon
    pattern: Word
    target: str
    action: Action


@dataclass(frozen=True)
class Configuration:
    state: str
    position: int
    store: Store


@dataclass(frozen=True)
class SearchBounds:
    """None means unlimited.  At least one bound should stay finite for
    automata with epsilon push cycles (not statically checkable)."""

    max_store_symbols: Optional[int] = None
    max_configurations: Optional[int] = None


def default_bounds(input_length: int) -> SearchBounds:
    return SearchBounds(max_store_symbols=4 * (input_length + 4),
                        max_configurations=10 ** 7)


@dataclass
class Verdict:
    status: str
    trace: Optional[list[tuple[Configuration, Optional[int]]]] = None
    configurations: int = 0
    store_cut: bool = False

    def __bool__(self):
        return self.status == ACCEPTED


@dataclass(frozen=True)
class Automaton:
    """States, alphabets, iteration level and transition table."""

    levels: int
    states: Word
    initial_state: str
    input_alphabet: Word
    store_alphabet: Word
    initial_symbol: str
    transitions: tuple[Transition, ...]
    name: str = field(default="", compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.levels < 1:
            raise MachineError("iteration level must be >= 1")
        states = set(self.states)
        letters = set(self.input_alphabet)
        symbols = set(self.store_alphabet)
        for sym in self.store_alphabet:
            st.check_symbol(sym)
        if self.initial_state not in states:
            raise MachineError(f"initial state {self.initial_state!r} undeclared")
        if self.initial_symbol not in symbols:
            raise MachineError(f"start symbol {self.initial_symbol!r} undeclared")
        for i, t in enumerate(self.transitions):
            where = f"transition {i}"
            if t.state not in states or t.target not in states:
                raise MachineError(f"{where}: undeclared state")
            if t.letter is not None and t.letter not in letters:
                raise MachineError(f"{where}: undeclared input letter {t.letter!r}")
            if not t.pattern or len(t.pattern) > self.levels:
                raise MachineError(f"{where}: pattern length must be 1..{self.levels}")
            if any(s not in symbols for s in t.pattern):
                raise MachineError(f"{where}: undeclared symbol in pattern")
            if not 1 <= t.action.level <= self.levels:
                raise MachineError(
                    f"{where}: action level {t.action.level} outside 1..{self.levels}")
            if isinstance(t.action, Push) and any(
                    s not in symbols for s in t.action.word):
                raise MachineError(f"{where}: undeclared symbol in push word")
        # (state, pattern) -> (whether the search can branch there, ordered
        # applicable transitions), duplicates merged.  Entries carry an
        # opcode so the search loop can inline the two by far most frequent
        # store operations:
        #   0 pop at depth 1, 1 pop deeper, 2 push at depth 1 (payload is
        #   the push word reversed, ready for top-down construction),
        #   3 push deeper (payload is the push word).
        index: dict = {}
        seen = set()
        for tid, t in enumerate(self.transitions):
            key = (t.state, t.letter, t.pattern, t.target, t.action)
            if key in seen:
                continue
            seen.add(key)
            if isinstance(t.action, Push):
                op = 2 if t.action.level == 1 else 3
                payload = (tuple(reversed(t.action.word)) if op == 2
                           else t.action.word)
                entry = (tid, t.letter, t.target, op, t.action.level,
                         payload, t.action.word)
            else:
                op = 0 if t.action.level == 1 else 1
                entry = (tid, t.letter, t.target, op, t.action.level,
                         None, None)
            index.setdefault((t.state, t.pattern), []).append(entry)
        for key, entries in index.items():
            index[key] = (_can_branch(entries), tuple(entries))
        object.__setattr__(self, "_index", index)

    def initial_store(self) -> Store:
        return st.node(self.initial_symbol, st.empty(self.levels - 1),
                       st.empty(self.levels))

    def initial_configuration(self) -> Configuration:
        return Configuration(self.initial_state, 0, self.initial_store())


def _can_branch(entries) -> bool:
    """Can two of these index entries fire on the same input?"""
    letters = [e[1] for e in entries]
    return len(letters) > 1 and (None in letters
                                 or len(set(letters)) < len(letters))


def _as_word(word) -> Word:
    return parse_word(word) if isinstance(word, str) else tuple(word)


def step(automaton: Automaton, config: Configuration,
         word) -> set[tuple[Configuration, int]]:
    """All one-step successors of ``config`` on ``word``, with the id of
    the transition applied."""
    word = _as_word(word)
    out = set()
    _, entries = automaton._index.get((config.state, config.store._topsym),
                                      (None, ()))
    for tid, letter, target, op, level, _payload, push_word in entries:
        if letter is None:
            npos = config.position
        elif config.position < len(word) and word[config.position] == letter:
            npos = config.position + 1
        else:
            continue
        nstore = (st.push(level, push_word, config.store) if op >= 2
                  else st.pop(level, config.store))
        if nstore is not None:
            out.add((Configuration(target, npos, nstore), tid))
    return out


def _search(automaton: Automaton, word: Word, start: tuple,
            goal: Optional[tuple], bounds: SearchBounds,
            want_trace: bool, memoize: bool = True) -> Verdict:
    """Depth-first bounded reachability over the configuration graph.

    ``goal`` is None for acceptance (input exhausted, store empty) or an
    exact (state, position, store) target.  Returns a Verdict; the trace
    is reconstructed only when ``want_trace``.

    With ``memoize``, every generated configuration is looked up in
    ``seen`` and pruned if it is there, but only some are added to it:
    those whose index key can branch (two transitions may fire) or has no
    transitions, and, between two such branch points, the 1st, 2nd, 4th,
    8th, ... configuration after the last one.  Between branch points each
    configuration has at most one successor, so the search walks a single
    path there, and these few entries keep memory near the DFS depth on
    tree walks.  A path that meets the configuration another path
    reached j steps after its branch point is pruned within j more
    steps, on the next remembered configuration of that path.  A cycle
    reads no letter, so it passes a branch point or lies on such a path,
    and it is closed the same way.
    """
    index = automaton._index
    n = len(word)
    max_store = bounds.max_store_symbols
    max_configs = bounds.max_configurations
    push = st.push
    pop = st.pop

    def is_goal(cfg):
        if goal is None:
            return cfg[1] == n and cfg[2].size == 0
        return cfg == goal

    parents: dict = {}
    count = 1
    store_cut = False

    def finish(status, final_cfg=None):
        trace = None
        if status == ACCEPTED and want_trace:
            trace = []
            cfg = final_cfg
            tid = None
            while True:
                trace.append((Configuration(cfg[0], cfg[1], cfg[2]), tid))
                if cfg == start:
                    break
                cfg, tid = parents[cfg]
            trace.reverse()
        return Verdict(status, trace, count, store_cut)

    if is_goal(start):
        return finish(ACCEPTED, start)

    accept_mode = goal is None
    Store_ = Store
    dead = (True, ())  # dead ends are remembered like branch points
    seen = {start}
    # t: the popped configuration is the t-th since the last branch point
    # on its path.  mark: the stack height left by popping a configuration
    # that cannot branch, so its one successor, if pushed, pops back to it.
    t = mark = 0
    stack = [(*start, index.get((start[0], start[2]._topsym), dead))]
    while stack:
        state, pos, cur, (branches, entries) = stack.pop()
        if memoize:
            t = t + 1 if len(stack) == mark else 1
            mark = -1 if branches else len(stack)
            # Successors of a branch point start a new count at 1; the
            # others are remembered when their count t + 1 is a power of 2.
            keep_all = branches or not t & (t + 1)
        successors = []
        for tid, letter, target, op, level, payload, _w in entries:
            if letter is None:
                npos = pos
            elif pos < n and word[pos] == letter:
                npos = pos + 1
            else:
                continue
            # cur is nonempty here: a pattern matched its topsym.
            if op == 0:
                nstore = cur.rest
            elif op == 2:
                flag = cur.flag
                fsize, fhash, ftop = flag.size, flag._hash, flag._topsym
                nstore = cur.rest
                for sym in payload:
                    nstore = Store_(cur.level, sym, flag, nstore,
                                    1 + fsize + nstore.size,
                                    hash((sym, fhash, nstore._hash)),
                                    (sym,) + ftop)
            else:
                nstore = (pop(level, cur) if op == 1
                          else push(level, payload, cur))
                if nstore is None:
                    continue
            if max_store is not None and nstore.size > max_store:
                store_cut = True
                continue
            nnode = index.get((target, nstore._topsym), dead)
            if memoize:
                ncfg = (target, npos, nstore)
                if ncfg in seen:
                    continue
                if keep_all or nnode[0]:
                    seen.add(ncfg)
            if want_trace:
                # First write wins: a configuration can be generated more
                # than once, and its first parent was generated before it,
                # so the witness walks real edges back to the start.
                parents.setdefault((target, npos, nstore),
                                   ((state, pos, cur), tid))
            count += 1
            if accept_mode:
                if npos == n and nstore.size == 0:
                    return finish(ACCEPTED, (target, npos, nstore))
            elif (target, npos, nstore) == goal:
                return finish(ACCEPTED, goal)
            if max_configs is not None and count > max_configs:
                return finish(INCONCLUSIVE)
            successors.append((target, npos, nstore, nnode))
        stack.extend(reversed(successors))
    return finish(REJECTED)


def _check_letters(automaton: Automaton, word: Word):
    letters = set(automaton.input_alphabet)
    for tok in word:
        if tok not in letters:
            raise UndeclaredLetterError(
                f"input letter {tok!r} not in alphabet of {automaton.name or 'automaton'}")


def accepts(automaton: Automaton, word, bounds: Optional[SearchBounds] = None,
            trace: bool = False, memoize: bool = True) -> Verdict:
    """Bounded acceptance verdict for ``word``.

    ``bounds=None`` uses :func:`default_bounds` for the word's length.
    Pass ``trace=True`` to get a replayable witness on acceptance.

    ``memoize=False`` gives up cycle detection: on an epsilon-cycle that
    keeps the store within its bound the search spins until the
    configuration budget runs out and reports Inconclusive.  It also
    explores paths that meet once per path, which can take exponentially
    longer.  It saves one set lookup per configuration.
    """
    word = _as_word(word)
    _check_letters(automaton, word)
    if bounds is None:
        bounds = default_bounds(len(word))
    start = (automaton.initial_state, 0, automaton.initial_store())
    return _search(automaton, word, start, None, bounds, trace, memoize)


def reachable(automaton: Automaton, start: Configuration, goal: Configuration,
              word, bounds: Optional[SearchBounds] = None,
              trace: bool = False) -> Verdict:
    """Is ``goal`` reachable from ``start`` while reading ``word``?

    This is the executable form of the derivation relation: positions
    index the shared input word.
    """
    word = _as_word(word)
    _check_letters(automaton, word)
    if bounds is None:
        bounds = default_bounds(len(word))
    return _search(automaton, word,
                   (start.state, start.position, start.store),
                   (goal.state, goal.position, goal.store),
                   bounds, trace)


def enumerate_language(automaton: Automaton, max_len: int,
                       bounds: Optional[SearchBounds] = None) -> set[Word]:
    """All accepted words of length <= ``max_len``.

    Explores the configuration graph with the emitted prefix as part of
    the search key, so only prefixes the automaton can actually read are
    ever visited.  Raises :class:`SearchLimitError` if the configuration
    budget is exceeded (the result would be incomplete).
    """
    if bounds is None:
        bounds = default_bounds(max_len)
    index = automaton._index
    max_store = bounds.max_store_symbols
    max_configs = bounds.max_configurations
    accepted: set[Word] = set()
    start = (automaton.initial_state, (), automaton.initial_store())
    seen = {start}
    stack = [start]
    count = 1
    while stack:
        state, emitted, cur = stack.pop()
        if cur.size == 0:
            accepted.add(emitted)
            continue
        node = index.get((state, cur._topsym))
        if node is None:
            continue
        for tid, letter, target, op, level, _payload, push_word in node[1]:
            if letter is None:
                nemit = emitted
            elif len(emitted) < max_len:
                nemit = emitted + (letter,)
            else:
                continue
            nstore = (st.push(level, push_word, cur) if op >= 2
                      else st.pop(level, cur))
            if nstore is None:
                continue
            if max_store is not None and nstore.size > max_store:
                continue
            ncfg = (target, nemit, nstore)
            if ncfg in seen:
                continue
            seen.add(ncfg)
            count += 1
            if max_configs is not None and count > max_configs:
                raise SearchLimitError(
                    "language enumeration exceeded the configuration budget")
            stack.append(ncfg)
    return accepted


# ---------------------------------------------------------------------------
# Textual automaton format


def _format_pattern(pattern: Word, multichar: bool) -> str:
    if multichar:
        return "[" + " ".join(pattern) + "]"
    return "".join(pattern)


def render_automaton(automaton: Automaton) -> str:
    """Canonical line-oriented text form; inverse of :func:`parse_automaton`."""
    multichar = any(len(s) > 1 for s in automaton.store_alphabet)
    lines = []
    if automaton.name:
        lines.append(f"# {automaton.name}")
    lines.append(f"levels: {automaton.levels}")
    lines.append("states: " + " ".join(automaton.states))
    lines.append(f"initial: {automaton.initial_state}")
    lines.append("input: " + " ".join(automaton.input_alphabet))
    lines.append("store: " + " ".join(automaton.store_alphabet))
    lines.append(f"start_symbol: {automaton.initial_symbol}")
    for t in automaton.transitions:
        letter = "eps" if t.letter is None else t.letter
        pattern = _format_pattern(t.pattern, multichar)
        lines.append(f"t: {t.state} {letter} {pattern} -> {t.target} {t.action}")
    return "\n".join(lines) + "\n"


def _parse_pattern(text: str, symbols: set[str], lineno: int) -> Word:
    if text.startswith("["):
        if not text.endswith("]"):
            raise AutomatonFormatError(lineno, f"unterminated pattern {text!r}")
        parts = tuple(text[1:-1].split())
    elif text in symbols:
        parts = (text,)
    elif all(c in symbols for c in text):
        parts = tuple(text)
    else:
        raise AutomatonFormatError(
            lineno, f"pattern {text!r} is not a chain of declared symbols")
    if not parts:
        raise AutomatonFormatError(lineno, "empty topsym pattern")
    for s in parts:
        if s not in symbols:
            raise AutomatonFormatError(lineno, f"undeclared symbol {s!r} in pattern")
    return parts


def parse_automaton(text: str) -> Automaton:
    """Parse the canonical automaton file format.

    Raises :class:`AutomatonFormatError` with a line number on syntax
    errors, undeclared names, or level violations.
    """
    header: dict[str, list[str]] = {}
    transition_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise AutomatonFormatError(lineno, f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key == "t":
            transition_lines.append((lineno, value.strip()))
        elif key in ("levels", "states", "initial", "input", "store", "start_symbol"):
            if key in header:
                raise AutomatonFormatError(lineno, f"duplicate {key!r} line")
            header[key] = value.split()
        else:
            raise AutomatonFormatError(lineno, f"unknown key {key!r}")
    for key in ("levels", "states", "initial", "input", "store", "start_symbol"):
        if key not in header:
            raise AutomatonFormatError(len(text.splitlines()) or 1,
                                       f"missing {key!r} line")
    try:
        levels = int(header["levels"][0])
    except (IndexError, ValueError):
        raise AutomatonFormatError(1, "levels must be an integer") from None
    symbols = set(header["store"])
    states = set(header["states"])
    letters = set(header["input"])

    transitions = []
    for lineno, body in transition_lines:
        if "->" not in body:
            raise AutomatonFormatError(lineno, "transition lacks '->'")
        lhs, rhs = body.split("->", 1)
        left = lhs.split(None, 2)
        if len(left) != 3:
            raise AutomatonFormatError(
                lineno, "expected 'STATE LETTER PATTERN' before '->'")
        state, letter, pattern_text = left
        pattern_text = pattern_text.strip()
        if state not in states:
            raise AutomatonFormatError(lineno, f"undeclared state {state!r}")
        if letter != "eps" and letter not in letters:
            raise AutomatonFormatError(lineno, f"undeclared input letter {letter!r}")
        pattern = _parse_pattern(pattern_text, symbols, lineno)
        right = rhs.split()
        if len(right) < 3 or right[1] not in ("pop", "push"):
            raise AutomatonFormatError(
                lineno, "expected 'STATE pop J' or 'STATE push J SYM...' after '->'")
        target = right[0]
        if target not in states:
            raise AutomatonFormatError(lineno, f"undeclared state {target!r}")
        try:
            level = int(right[2])
        except ValueError:
            raise AutomatonFormatError(lineno, "action level must be an integer") from None
        if not 1 <= level <= levels:
            raise AutomatonFormatError(
                lineno, f"action level {level} violates the declared {levels} levels")
        if right[1] == "pop":
            if len(right) != 3:
                raise AutomatonFormatError(lineno, "pop takes no symbols")
            action: Action = Pop(level)
        else:
            action = Push(level, tuple(right[3:]))
        transitions.append(Transition(
            state=state,
            letter=None if letter == "eps" else letter,
            pattern=pattern,
            target=target,
            action=action,
        ))
    try:
        return Automaton(
            levels=levels,
            states=tuple(header["states"]),
            initial_state=header["initial"][0] if header["initial"] else "",
            input_alphabet=tuple(header["input"]),
            store_alphabet=tuple(header["store"]),
            initial_symbol=header["start_symbol"][0] if header["start_symbol"] else "",
            transitions=tuple(transitions),
        )
    except MachineError as exc:
        raise AutomatonFormatError(1, str(exc)) from exc
