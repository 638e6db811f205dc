"""polarnet benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload ingest|query|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a polarnet checkout.  This launcher stays small and
holds no generated data: it starts ``worker.py`` in a fresh interpreter
(whose peak memory is then its own), relays the result, writes a run
record to ``.perfbench_out/`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a separate traced run.  See ``README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "query", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes (self-test only)")
    parser.add_argument("--corrupt", choices=("ranking", "roundtrip"),
                        help="corrupt outputs on purpose (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polarnet" / "__init__.py").is_file():
        print(f"perfbench: no polarnet sources under {ROOT / 'src'}; "
              "run from the root of a polarnet checkout", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    # The worker gets its own process group, so that a timeout also stops
    # the children it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(res["metrics"]) != set(units):
        print("perfbench: worker metrics differ from BENCHMARK.json: "
              f"{sorted(set(res['metrics']) ^ set(units))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "corrupt": args.corrupt,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "attempted": attempted, "failed": failed,
        "error_ratio": failed / attempted, "metrics": metrics, **res["info"],
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:7s} {name:45s} {m['value']:16.6f} {m['unit']}")
    print(f"{args.workload:7s} {'error_ratio':45s} {failed / attempted:16.6f} "
          f"ratio ({failed} of {attempted} ops)")
    if "tail_percentile" in res["info"]:
        print(f"{args.workload:7s} op_tail_ms is p{res['info']['tail_percentile']:g}"
              f" of {res['info']['samples']} samples")
    for problem in res["info"].get("problems", []):
        print(f"{args.workload:7s} wrong output: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
