#!/usr/bin/env python3
"""Run the full recognizer-vs-oracle verification across all families.

Prints one check report per (family, kind) pair and a final summary.
Equivalent to a batch of `itpda check` invocations; handy for eyeballing
timings per level.  A family passes when its check passes: every
positive accepted and every mutant rejected, each verdict decided
without the store bound.  Each family's system is looked up by the name
``itpda check --system`` takes, and its mutants are drawn with seed 0
(``itpda check --seed`` draws others).
"""

import argparse
import sys

from itpda import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mutations", type=int, default=50)
    args = parser.parse_args()

    all_ok = True
    for kind, name, root, sigma, levels in cli.CHECKED_FAMILIES:
        system = cli.get_system(name)
        title = f"{kind} {system.name} root={root}" + (
            f" sigma={sigma}" if kind == "ball" else "")
        print(f"== {title} ==")
        report = cli.run_check(kind, system, root, sigma, levels,
                               args.mutations, 0)
        print(report.as_text())
        print()
        all_ok &= report.ok
    print("ALL PASS" if all_ok else "SOME FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
