#!/usr/bin/env python3
"""Render every fixtures/*.pnet file to a DOT document under build/dot/."""
import argparse
import sys
from pathlib import Path

from polarnet.cli import ReadError, read_net
from polarnet.io import to_dot


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", type=Path, default=Path("fixtures"),
                        help="directory of .pnet files")
    parser.add_argument("-o", "--out", type=Path, default=Path("build/dot"),
                        help="output directory for .dot files")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    for path in sorted(args.fixtures.glob("*.pnet")):
        try:
            net = read_net(path)
        except ReadError as exc:  # as `polarnet render` exits
            print(exc, file=sys.stderr)
            return exc.code
        target = args.out / (path.stem + ".dot")
        target.write_text(to_dot(net), encoding="utf-8")
        print(f"{path} -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
