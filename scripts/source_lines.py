#!/usr/bin/env python3
"""Count the non-blank lines of each package module and their total.

A line holding only whitespace is blank; comments and docstrings count.

Usage: python scripts/source_lines.py
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nhlattice"


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
        total += count
        print(f"{path.name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")


if __name__ == "__main__":
    main()
