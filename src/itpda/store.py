"""Iterated (k-level nested) pushdown stores.

A level-0 store is empty.  A level-(k+1) store is a finite sequence of
elements, each a symbol labelled with a level-k store (its "flag").  Only
the chain of top elements is visible: ``topsym`` reads it, and ``pop`` /
``push`` rewrite it at a chosen depth.

Stores are immutable persistent structures: every operation returns a new
store that shares unchanged substructure with its input.  Each node caches
its total symbol count, its hash and its visible top chain, so stores are
cheap to use as memoization keys even when they are large.  The
:class:`Store` constructor is the one place that computes these fields
for a nonempty node, and :func:`empty` the one place for an empty one.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

# Reserved by the textual rendering (see render/parse below).
_RESERVED_CHARS = set("[]. \t\n\r")
_EMPTY_MARK = "e"


class StoreError(ValueError):
    """Malformed symbol or store text."""


def check_symbol(token: str) -> str:
    """Validate a store symbol token and return it."""
    if not token:
        raise StoreError("store symbol must be nonempty")
    if any(c in _RESERVED_CHARS for c in token):
        raise StoreError(f"store symbol {token!r} contains a reserved character")
    if token == _EMPTY_MARK:
        raise StoreError(f"store symbol {token!r} is reserved for the empty store")
    return token


class Store:
    """One node of a persistent iterated store.

    A store is either empty (``symbol is None``) or ``symbol[flag].rest``
    where ``flag`` has level ``level - 1`` and ``rest`` has level ``level``.
    ``Store(level, symbol, flag, rest)`` builds a nonempty node, unchecked,
    and is the only code that computes its cached fields from those of
    ``flag`` and ``rest``: the symbol count ``size``, the hash and the top
    chain.  Construct via :func:`empty`, :func:`node` or :func:`from_pairs`.

    ``_tid`` is the one slot a node does not compute: the id of its yield
    table as a flag (see ``itpda.machine._YieldTables``).  :func:`empty`
    sets it to 0, the empty flag's table, and the acceptance search and
    the language enumeration of :mod:`itpda.machine` write it once on
    each flag node they make; it is unset on any other node.  Equality,
    hashing and rendering ignore it.
    """

    __slots__ = ("level", "symbol", "flag", "rest", "size", "_hash", "_topsym",
                 "_tid")

    def __init__(self, level: int, symbol: str, flag: "Store", rest: "Store"):
        # Plain slot writes: store nodes are allocated millions of times in
        # the acceptance search, so no frozen-attribute guard here.  All
        # operations return new stores; never assign to these fields.
        self.level = level
        self.symbol = symbol
        self.flag = flag
        self.rest = rest
        self.size = 1 + flag.size + rest.size
        self._hash = hash((symbol, flag._hash, rest._hash))
        self._topsym = (symbol,) + flag._topsym

    def entries(self) -> Iterator[tuple[str, "Store"]]:
        """Top-to-bottom (symbol, flag) pairs of the outermost sequence."""
        node = self
        while node.symbol is not None:
            yield node.symbol, node.flag
            node = node.rest

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Store):
            return NotImplemented
        # Iterative comparison: outer chains can hold millions of elements.
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            while a is not b:
                if (a.symbol != b.symbol or a._hash != b._hash
                        or a.size != b.size or a.level != b.level):
                    return False
                if a.symbol is None:
                    break  # both empty at the same level
                if a.flag is not b.flag:
                    pending.append((a.flag, b.flag))
                a, b = a.rest, b.rest
        return True

    def __repr__(self) -> str:
        return f"Store({render(self)!r}, level={self.level})"


_EMPTY_CACHE: dict[int, Store] = {}


def empty(level: int) -> Store:
    """The empty store of the given level (cached singleton)."""
    if level < 0:
        raise StoreError("store level must be >= 0")
    store = _EMPTY_CACHE.get(level)
    if store is None:
        store = Store.__new__(Store)
        store.level, store.size, store._topsym, store._tid = level, 0, (), 0
        store.symbol = store.flag = store.rest = None
        store._hash = hash(("itpda.empty", level))
        _EMPTY_CACHE[level] = store
    return store


def node(symbol: str, flag: Store, rest: Store) -> Store:
    """``symbol[flag].rest`` -- prepend one element to ``rest``."""
    if flag.level != rest.level - 1:
        raise StoreError(
            f"flag level {flag.level} does not fit store level {rest.level}")
    return Store(rest.level, symbol, flag, rest)


def from_pairs(level: int, pairs) -> Store:
    """Build a level-``level`` store from (symbol, flag) pairs, top first."""
    store = empty(level)
    for symbol, flag in reversed(list(pairs)):
        store = node(check_symbol(symbol), flag, store)
    return store


def single(symbol: str, level: int, inner_symbols=()) -> Store:
    """Convenience: ``symbol[F1..Fn]`` with the given inner symbols.

    ``single("X", 2, ["F", "F"])`` is the store ``X[F.F]``.
    """
    inner = from_pairs(level - 1, [(s, empty(level - 2)) for s in inner_symbols])
    return node(check_symbol(symbol), inner, empty(level))


def topsym(store: Store) -> tuple[str, ...]:
    """The visible chain of top symbols, outermost first.

    Empty store reads as the empty tuple; otherwise the top symbol followed
    by the topsym of its flag.  Length is at most the store level.
    Precomputed per node, so this is O(1).
    """
    return store._topsym


def pop(j: int, store: Store) -> Optional[Store]:
    """Remove the top element of the depth-``j`` store; None when undefined.

    ``pop(1)`` drops the outermost top element (with its whole flag);
    ``pop(j+1)`` acts on the flag of the top element.  Undefined (None)
    whenever the recursion meets an empty store.
    """
    if store.symbol is None:
        return None
    if j == 1:
        return store.rest
    inner = pop(j - 1, store.flag)
    if inner is None:
        return None
    return Store(store.level, store.symbol, inner, store.rest)


def push(j: int, word, store: Store) -> Optional[Store]:
    """Write ``word`` at depth ``j``; None when undefined.

    At depth 1 the top element is replaced by one element per letter of
    ``word``, each carrying an identical copy of the old top's flag (an
    empty flag when the store is empty).  An empty ``word`` therefore
    deletes the top element.  At depth j+1 the operation is applied inside
    the flag of the top element, where it prepends ``word`` (with empty
    flags) on top of the depth-(j+1) store; undefined on an empty store.
    """
    if j > 1 or store.symbol is None:
        return _push_inner(j, word, store)
    flag = store.flag
    out = store.rest
    for symbol in reversed(tuple(word)):
        out = Store(store.level, symbol, flag, out)
    return out


def _push_inner(j: int, word, store: Store) -> Optional[Store]:
    # Depth j >= 2 bottoms out here, as does depth 1 on an empty store:
    # new elements go on top of the inner store without replacing
    # anything, carrying empty flags.  Replacing at the bottom would make
    # push_2(F) a no-op on a nonempty inner store, which breaks the
    # round-trip law pop(2, push(2, F, s)) == s and every guess loop built
    # on it.
    if j == 1:
        flag = empty(store.level - 1)
        out = store
        for symbol in reversed(tuple(word)):
            out = Store(store.level, symbol, flag, out)
        return out
    if store.symbol is None:
        return None
    inner = _push_inner(j - 1, word, store.flag)
    if inner is None:
        return None
    return Store(store.level, store.symbol, inner, store.rest)


def total_size(store: Store) -> int:
    """Count of all symbols at all levels (cached, O(1))."""
    return store.size


def render(store: Store) -> str:
    """Textual form: ``e`` for an empty store, ``SYM[inner]`` elements
    joined by ``.``; empty flags are omitted (``F`` not ``F[e]``)."""
    if store.symbol is None:
        return _EMPTY_MARK
    parts = []
    for symbol, flag in store.entries():
        if flag.size == 0:
            parts.append(symbol)
        else:
            parts.append(f"{symbol}[{render(flag)}]")
    return ".".join(parts)


_TOKEN_RE = re.compile(r"[^\s\[\].]+|[\[\].]")


def parse(text: str, level: int) -> Store:
    """Parse the :func:`render` format back into a level-``level`` store.

    Bit-exact round trip: ``parse(render(s), s.level) == s``.
    """
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != "".join(text.split()):
        raise StoreError(f"unparseable store text: {text!r}")
    store, pos = _parse_store(tokens, 0, level, text)
    if pos != len(tokens):
        raise StoreError(f"trailing junk after store in {text!r}")
    return store


def _parse_store(tokens, pos, level, text):
    if pos < len(tokens) and tokens[pos] == _EMPTY_MARK:
        return empty(level), pos + 1
    if level == 0:
        raise StoreError(f"expected 'e' for a level-0 store in {text!r}")
    pairs = []
    while True:
        if pos >= len(tokens) or tokens[pos] in "[].":
            raise StoreError(f"expected a symbol at token {pos} in {text!r}")
        symbol = check_symbol(tokens[pos])
        pos += 1
        if pos < len(tokens) and tokens[pos] == "[":
            flag, pos = _parse_store(tokens, pos + 1, level - 1, text)
            if pos >= len(tokens) or tokens[pos] != "]":
                raise StoreError(f"unbalanced '[' in {text!r}")
            pos += 1
        else:
            flag = empty(level - 1)
        pairs.append((symbol, flag))
        if pos < len(tokens) and tokens[pos] == ".":
            pos += 1
            continue
        break
    return from_pairs(level, pairs), pos
