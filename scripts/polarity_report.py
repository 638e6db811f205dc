#!/usr/bin/env python3
"""Polarity report for a net file: the whole-net label plus, for every
vertex with out-neighbors, its ranked selection under a chosen preference."""
import argparse
from pathlib import Path

from polarnet.analysis import Polarity, net_polarity, polar_select
from polarnet.dsl import parse_net
from polarnet.io import from_json


def load(path: Path):
    text = path.read_text(encoding="utf-8-sig")  # as the CLI reads it
    return from_json(text) if path.suffix == ".json" else parse_net(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", type=Path, help="input net (.pnet or .json)")
    parser.add_argument("--prefer", default="positive",
                        choices=[p.value for p in Polarity])
    args = parser.parse_args()

    net = load(args.file)
    summary, label = net_polarity(net)
    print(f"net {net.name!r} ({net.mode.value}): {label.value} "
          f"(p={summary.p:.3f}, u={summary.u:.3f}, n={summary.n:.3f})")
    preference = Polarity(args.prefer)
    labels = {v.id: v.label for v in net.vertices}
    for vertex in net.vertices:
        result = polar_select(net, vertex.id, preference)
        if not result.ranked:
            continue
        ranked = ", ".join(f"{labels[r.vertex_id]} ({r.score:+.2f})"
                           for r in result.ranked)
        print(f"  {vertex.label} -> {ranked}")


if __name__ == "__main__":
    main()
