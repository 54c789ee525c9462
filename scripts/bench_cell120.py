#!/usr/bin/env python3
"""Benchmark the 120-cell-grid sector recognizer on large level words.

Level 3 is ~1.5M letters; level 4 (~170M letters) is left out by default:
the contour word the library builds is still a tuple of about 1.3 GB
there, so pass --max-level 4 only with patience and RAM to spare.  The
search side holds less: it reads the word as one str of one-character
letter codes, one byte per letter, and ``itpda run`` encodes its word
file straight into that str.  Exits 1 when a level is not accepted.

Each level prints the time to build the word, then two runs of the
recognizer on it.  The first run on the automaton also builds its yield
tables; the second, warm run times the search alone.  The rate is in
letters of input per second of the warm run.  The search jumps over the
repeated subtrees of a tree walk, so the configurations a verdict counts
are mostly never built, and a count per second would not measure a step.
The last column times ``itpda run`` (in this process) on the level's
word file, written to a temporary directory: reading the automaton file
and the word file, encoding the word and the search, yield tables
included.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

from itpda import cli
from itpda.builders import sector_automaton, suggested_store_bound
from itpda.contour import ContourSpec, sector_contour
from itpda.grammar import cell120, format_word
from itpda.machine import SearchBounds, accepts, render_automaton


def time_run(automaton_file: Path, word_file: Path, max_store: int):
    """Seconds and exit code of ``itpda run`` on the two files."""
    argv = ["run", str(automaton_file), str(word_file),
            "--max-store", str(max_store), "--max-configs", str(10 ** 12)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - t0, code


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
            max_store = suggested_store_bound(system, 1, level)
            bounds = SearchBounds(max_store, None)
            runs = []
            for _ in range(2):
                t0 = time.perf_counter()
                verdict = accepts(automaton, word, bounds, memoize=False)
                runs.append(time.perf_counter() - t0)
                failed = failed or not verdict
            first, warm = runs
            rate = len(word) / warm / 1e6 if warm else float("inf")
            word_file.write_text(format_word(word) + "\n", encoding="utf-8")
            letters = len(word)
            del word
            run, code = time_run(automaton_file, word_file, max_store)
            failed = failed or code != 0
            print(f"level {level}: {letters:>12} letters  build {build:6.3f}s  "
                  f"{verdict.status}  {verdict.configurations} configs  "
                  f"first {first:6.3f}s  warm {warm:6.3f}s  "
                  f"({rate:.2f}M letters/s)  itpda run {run:6.3f}s"
                  f"{'' if code == 0 else f' (exit {code})'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
