"""Run one deck of commands as child processes, one at a time.

Reads a JSON job on standard input::

    {"argv0": ["python3", "-m", "polarnet"], "ops": [["validate", "a.pnet"]],
     "outdir": "...", "first": 0}

Child k writes its stdout and stderr to ``outdir/<first + k>.out`` and
``.err``.  Prints ``{"wall": s, "ops": [[latency_s, exit_code, peak_mib]]}``.

A child's ``ru_maxrss`` also counts the peak of the process that spawned it,
so this process imports only ``json``, ``os``, ``sys`` and ``time`` and
holds nothing else: each child's reading is then its own.
"""
import json
import os
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    argv0, outdir, first = job["argv0"], job["outdir"], job["first"]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    results = []
    start = time.perf_counter()
    for k, argv in enumerate(job["ops"]):
        base = os.path.join(outdir, str(first + k))
        out = os.open(base + ".out", flags, 0o644)
        err = os.open(base + ".err", flags, 0o644)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(argv0[0], argv0 + argv, os.environ,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out, 1),
                                               (os.POSIX_SPAWN_DUP2, err, 2)])
            _, status, usage = os.wait4(pid, 0)
            latency = time.perf_counter() - t0
        finally:
            os.close(out)
            os.close(err)
        results.append([latency, os.waitstatus_to_exitcode(status),
                        usage.ru_maxrss / 1024.0])
    json.dump({"wall": time.perf_counter() - start, "ops": results}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
