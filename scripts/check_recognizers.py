#!/usr/bin/env python3
"""Run the full recognizer-vs-oracle verification across all families.

Prints one check report per (family, kind) pair and a final summary.
Equivalent to a batch of `itpda check` invocations; handy for eyeballing
timings per level.
"""

import argparse
import sys

from itpda import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mutations", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="the first three levels of each family")
    args = parser.parse_args()

    all_ok = True
    for kind, make_system, root, sigma, levels in cli.CHECKED_FAMILIES:
        system = make_system()
        if args.quick:
            levels = levels[:3]
        title = f"{kind} {system.name} root={root}" + (
            f" sigma={sigma}" if kind == "ball" else "")
        print(f"== {title} ==")
        report = cli.run_check(kind, system, root, sigma, levels,
                               args.mutations, args.seed)
        print(report.as_text())
        print()
        all_ok &= report.ok
    print("ALL PASS" if all_ok else "SOME FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
