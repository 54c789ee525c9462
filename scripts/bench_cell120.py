#!/usr/bin/env python3
"""Benchmark the 120-cell-grid sector recognizer on large level words.

Level 3 is ~1.5M letters; level 4 (~170M letters) is left out by default:
the contour word the library builds is still a tuple of about 1.3 GB
there, so pass --max-level 4 only with patience and RAM to spare.  The
search side holds less: it reads the word as one str of one-character
letter codes, one byte per letter, and ``itpda run`` encodes its word
file straight into that str.  Exits 1 when a level is not accepted.

Each level prints the time to build the word, the time a fresh copy of
the automaton takes to build its yield tables for the flags of the guessed
heights 0 .. level (climbing ``child`` from the empty flag's table, at
the cap of the word's length), then the recognizer on the word: its
first ``accepts`` on the token tuple, which also builds the automaton's
yield tables and encodes the tuple; then, on the warm automaton, the
encoding of the tuple into one str of letter codes alone (``encode``)
and ``accepts`` on that str alone (``search``).  Memo-free searches share
their segment summaries through the automaton, so ``search`` clears them
first: it walks each repeated subtree once, as a first search of the
word does, instead of jumping the subtrees ``first`` walked.  The rate is
in letters of input per second of the search.  The search jumps over the repeated
subtrees of a tree walk, so the configurations a verdict counts are
mostly never built, and a count per second would not measure a step.
The last column times ``itpda run`` (in this process) on the level's
word file, written to a temporary directory: reading the automaton file
and the word file, encoding the word and the search, yield tables
included.
"""

import argparse
import contextlib
import dataclasses
import io
import sys
import tempfile
import time
from pathlib import Path

from itpda import cli
from itpda.builders import sector_automaton
from itpda.contour import ContourSpec, sector_contour
from itpda.grammar import cell120, format_word
from itpda.machine import (Push, SearchBounds, _Coded, _encode, accepts,
                           default_bounds, render_automaton)


def time_run(automaton_file: Path, word_file: Path):
    """Seconds and exit code of ``itpda run`` on the two files, under its
    default store bound and a budget level 4 does not reach."""
    argv = ["run", str(automaton_file), str(word_file),
            "--max-configs", str(10 ** 12)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - t0, code


def time_tables(automaton, level: int) -> float:
    """Seconds a fresh copy of ``automaton`` takes to build its yield
    tables for the flags of heights 0 .. ``level``: the empty flag's
    table 0 comes with the tables, and each climb through ``child`` adds
    the next height's."""
    fresh = dataclasses.replace(automaton)
    marker = next(t.action.word[0] for t in fresh.transitions
                  if isinstance(t.action, Push) and t.action.level == 2)
    t0 = time.perf_counter()
    tables, tid = fresh._yield_tables(), 0
    for _ in range(level):
        tid = tables.child(marker, tid)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-level", type=int, default=3)
    parser.add_argument("--root", default="9")
    args = parser.parse_args()

    failed = False
    system = cell120()
    automaton = sector_automaton(system, args.root)
    spec = ContourSpec(system, args.root, kind="sector")
    with tempfile.TemporaryDirectory() as tmp:
        automaton_file = Path(tmp) / "sector.ipda"
        automaton_file.write_text(render_automaton(automaton), encoding="utf-8")
        word_file = Path(tmp) / "word.txt"
        for level in range(1, args.max_level + 1):
            t0 = time.perf_counter()
            word = sector_contour(spec, level)
            build = time.perf_counter() - t0
            bounds = SearchBounds(default_bounds(len(word)).max_store_symbols,
                                  None)
            tables = time_tables(automaton, level)
            t0 = time.perf_counter()
            cold = accepts(automaton, word, bounds, memoize=False)
            t1 = time.perf_counter()
            coded = _Coded(_encode(automaton, word))
            automaton._summaries.clear()
            t2 = time.perf_counter()
            verdict = accepts(automaton, coded, bounds, memoize=False)
            t3 = time.perf_counter()
            first, encode, search = t1 - t0, t2 - t1, t3 - t2
            failed = failed or not (cold and verdict)
            rate = len(word) / search / 1e6 if search else float("inf")
            word_file.write_text(format_word(word) + "\n", encoding="utf-8")
            letters = len(word)
            del word
            run, code = time_run(automaton_file, word_file)
            failed = failed or code != 0
            print(f"level {level}: {letters:>12} letters  build {build:6.3f}s  "
                  f"tables {tables * 1e3:5.1f}ms  "
                  f"{verdict.status}  {verdict.configurations} configs  "
                  f"first {first:6.3f}s  encode {encode:6.3f}s  "
                  f"search {search:6.3f}s  ({rate:.2f}M letters/s)  "
                  f"itpda run {run:6.3f}s"
                  f"{'' if code == 0 else f' (exit {code})'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
