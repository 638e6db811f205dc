#!/usr/bin/env python3
"""Polarity report for a net file: the whole-net label plus, for every
vertex with out-neighbors, its ranked selection under a chosen preference."""
import argparse
import sys
from pathlib import Path

from polarnet.analysis import Polarity, net_polarity, polar_select
from polarnet.cli import ReadError, read_net, write_output
from polarnet.core import NetError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", type=Path, help="input net (.pnet or .json)")
    parser.add_argument("--prefer", default="positive",
                        choices=[p.value for p in Polarity])
    args = parser.parse_args()

    try:
        net = read_net(args.file)
        summary, label = net_polarity(net)
    except ReadError as exc:  # as `polarnet polarity` exits
        print(exc, file=sys.stderr)
        return exc.code
    except NetError as exc:  # an empty net has no polarity
        print(exc, file=sys.stderr)
        return 1
    lines = [f"net {net.name!r} ({net.mode.value}): {label.value} "
             f"(p={summary.p:.3f}, u={summary.u:.3f}, n={summary.n:.3f})\n"]
    preference = Polarity(args.prefer)
    labels = {v.id: v.label for v in net.vertices}
    for vertex in net.vertices:
        result = polar_select(net, vertex.id, preference)
        if not result.ranked:
            continue
        ranked = ", ".join(f"{labels[r.vertex_id]} ({r.score:+.2f})"
                           for r in result.ranked)
        lines.append(f"  {vertex.label} -> {ranked}\n")
    return write_output(lines)  # as `polarnet polarity` writes


if __name__ == "__main__":
    sys.exit(main())
