"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this file in a new interpreter so that the peak resident
memory it reports belongs to the process doing the work.  The last line of
standard output is a JSON object with the run's counts, metrics and record.

Every workload is a closed loop with one client.  Its operations are fixed
by the seed.  Each operation is timed on its own; outputs are checked
against the benchmark's own models (``ref.py``) with the clock stopped:
after each timed chunk, and for cli after the timed loop.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io as stdio
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import gen  # noqa: E402  (the benchmark's own modules sit beside this file)
import ref  # noqa: E402

#: Set-up time is the median of this many set-ups, spread over the run.
SETUP_SAMPLES = 3
#: Percentiles the tail may be reported at; see ``tail_percentile``.
PERCENTILE_GRID = (50.0, 90.0, 99.0, 99.9, 99.99)
MIB = 1024.0 * 1024.0


def polarnet_modules() -> SimpleNamespace:
    """Import polarnet from the checkout's ``src/`` (it is not installed).

    Workloads call ``pn.<module>.<function>`` so that each call looks the
    function up afresh and picks up the spans a traced run patches in.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from polarnet import analysis, cli, core, dsl, io, matrix
    return SimpleNamespace(core=core, dsl=dsl, io=io, matrix=matrix,
                           analysis=analysis, cli=cli)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mib() -> float:
    """Peak resident memory of this process (VmHWM, which exec resets)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def tail_percentile(n: int) -> float:
    """The highest grid percentile with at least ten samples beyond it
    (the maximum when no grid percentile has)."""
    return max((p for p in PERCENTILE_GRID if n - rank(p, n) >= 10),
               default=100.0)


def op_bounds(tail_pct: float) -> tuple:
    """Op counts that keep ``tail_pct`` the tail percentile of a run."""
    following = PERCENTILE_GRID[PERCENTILE_GRID.index(tail_pct) + 1]
    low = math.ceil(round(10 / (1 - tail_pct / 100.0), 6))
    high = math.ceil(round(10 / (1 - following / 100.0), 6)) - 1
    return low, high


class Corruption:
    """Deliberate output corruption, used only by the self-test to show
    that the checker catches wrong rankings and wrong round trips."""

    def __init__(self, kind: str | None):
        self.kind = kind

    def text(self, text: str) -> str:
        if self.kind != "roundtrip":
            return text
        if '"indeterminate": false' in text:
            return text.replace('"indeterminate": false',
                                '"indeterminate": true', 1)
        return text.replace("\nvertex ", "\nvertex x", 1)

    def ranking(self, result):
        if self.kind != "ranking" or len(result.ranked) < 2:
            return result
        ranked = result.ranked
        return type(result)(ranked=(ranked[1], ranked[0]) + ranked[2:])


# -- workloads ------------------------------------------------------------------

class Ingest:
    """Load documents, validate, classify, round-trip, render, matrices."""

    tail_pct = 90.0
    matrix_limit = 500
    # Set-up holds only the benchmark's own models and texts: frozen, so
    # that garbage collections inside the ops do not scan them.
    freeze_setup = True

    def __init__(self, seed: int, smoke: bool, corrupt: Corruption):
        self.seed = seed
        self.shapes = tuple((gen.smoke_size(n) if smoke else n, mode)
                            for n, mode in gen.INGEST_DECK)
        self.corrupt = corrupt
        # A deck is two passes over the nets, one load from each format.
        self.deck = 2 * len(self.shapes)

    def setup(self, pn) -> None:
        rng = random.Random(self.seed)
        shapes = list(self.shapes)
        rng.shuffle(shapes)
        self.models = [gen.make_net(rng, n, mode) for n, mode in shapes]
        self.texts = [(gen.to_pnet(m), gen.to_json_doc(m)) for m in self.models]

    def chunks(self):
        """One op per chunk; op = (net position, load format)."""
        while True:
            for cycle in (0, 1):
                for i in range(len(self.models)):
                    yield [(i, "pnet" if (i + cycle) % 2 == 0 else "json")]

    def run(self, pn, op):
        dsl, io, matrix = pn.dsl, pn.io, pn.matrix
        i, fmt = op
        pnet_text, json_text = self.texts[i]
        if fmt == "pnet":
            net = dsl.parse_net(pnet_text)
            other = self.corrupt.text(io.to_json(net))
            back = io.from_json(other)
        else:
            net = io.from_json(json_text)
            other = self.corrupt.text(dsl.format_net(net))
            back = dsl.parse_net(other)
        violations = net.validate()
        flags = net.classify()
        dot = io.to_dot(net)
        mats = None
        if len(net.vertices) <= self.matrix_limit:
            mm = matrix.membership_matrix(net)
            tensor = matrix.adjacency_tensor(net)
            rebuilt = matrix.from_matrices(net.mode, net.name, net.scale, mm, tensor)
            mats = (mm, tensor.labels, len(tensor.slices[0]), rebuilt)
        return net, other, back, violations, flags, dot, mats

    def check(self, op, out) -> list:
        i, fmt = op
        model = self.models[i]
        net, other, back, violations, flags, dot, mats = out
        problems = ref.compare_net(net, model)
        problems += (ref.compare_json_text(other, model) if fmt == "pnet"
                     else ref.compare_pnet_text(other, model))
        problems += ref.compare_net(back, model)
        if violations:
            problems.append(f"validate: {violations[0]}")
        problems += ref.compare_classify(flags, model)
        problems += ref.compare_text(dot, ref.dot(model), "dot")
        if (mats is None) != (len(model.labels) > self.matrix_limit):
            problems.append("matrices ran on the wrong nets")
        elif mats is not None:
            mm, tensor_labels, dim, rebuilt = mats
            labels = tuple(model.labels)
            if (mm.labels != labels or tensor_labels != labels
                    or dim != len(labels)
                    or [ref.triple_of(r) for r in mm.rows] != model.memberships):
                problems.append("membership matrix or tensor shape differs")
            problems += ref.compare_net(rebuilt, ref.matrices_model(model))
        return problems

    def alloc_probe(self, pn):
        """The largest net the matrix layer sees, for the tracemalloc pass."""
        sizes = [len(m.labels) for m in self.models]
        best = max((n, i) for i, n in enumerate(sizes) if n <= self.matrix_limit)[1]
        return pn.dsl.parse_net(self.texts[best][0])


class Query:
    """polar_select on Zipf-popular vertices, some net_polarity, some writes."""

    tail_pct = 99.9
    # Set-up builds the nets the ops read, which collections should scan.
    freeze_setup = False
    chunk_ops = 1000
    select_share = 0.94
    polarity_share = 0.01
    add_vertex_share = 0.01  # the remaining 4% are add_edge

    def __init__(self, seed: int, smoke: bool, corrupt: Corruption):
        self.seed = seed
        self.sizes = ({m: n // 40 for m, n in gen.QUERY_SIZES.items()} if smoke
                      else dict(gen.QUERY_SIZES))
        self.corrupt = corrupt
        self.deck = self.chunk_ops

    def setup(self, pn) -> None:
        self.core = pn.core
        rng = random.Random(self.seed)
        self.models = [gen.make_net(rng, n, mode) for mode, n in self.sizes.items()]
        self.nets = [build_net(pn.core, m) for m in self.models]
        self.prefs = [pn.analysis.Polarity(p)
                      for p in ("positive", "neutral", "negative")]
        # The draw state advances as ops are drawn; self.models advances as
        # outputs are checked, so reads compare against the net they saw.
        self.draw = [[set(m.labels), len(m.labels), set(m.pairs)]
                     for m in self.models]
        self.rng = random.Random(self.seed + 1)
        self.popular = [(gen.popularity_order(m),
                         list(accumulate(gen.zipf_weights(len(m.labels)))))
                        for m in self.models]

    def _draw(self):
        core, rng = self.core, self.rng
        k = rng.randrange(len(self.models))
        x = rng.random()
        if x < self.select_share:
            order, cum = self.popular[k]
            vid = order[rng.choices(range(len(order)), cum_weights=cum)[0]]
            return ("select", k, vid, rng.randrange(3))
        if x < self.select_share + self.polarity_share:
            return ("polarity", k)
        model = self.models[k]
        draw = self.draw[k]
        taken, count, pairs = draw
        if x < self.select_share + self.polarity_share + self.add_vertex_share:
            label, membership, mark = gen.new_vertex(rng, model, taken)
            draw[1] += 1
            return ("add_vertex", k, label, membership, mark,
                    triple_obj(core, membership))
        while True:
            src, dst = rng.randrange(count), rng.randrange(count)
            if src != dst and (src, dst) not in pairs:
                break
        pairs.add((src, dst))
        label, weight, mark = gen.new_edge_weight(rng, model)
        return ("add_edge", k, src, dst, label, weight, mark,
                triple_obj(core, weight))

    def chunks(self):
        while True:
            yield [self._draw() for _ in range(self.chunk_ops)]

    def run(self, pn, op):
        analysis = pn.analysis
        kind, k = op[0], op[1]
        net = self.nets[k]
        if kind == "select":
            return self.corrupt.ranking(
                analysis.polar_select(net, op[2], self.prefs[op[3]]))
        if kind == "polarity":
            return analysis.net_polarity(net)
        if kind == "add_vertex":
            return net.add_vertex(op[2], op[5], indeterminate=op[4])
        return net.add_edge(op[2], op[3], op[7], label=op[4], indeterminate=op[6])

    def check(self, op, out) -> list:
        kind, k = op[0], op[1]
        model = self.models[k]
        if kind == "select":
            pref = ("positive", "neutral", "negative")[op[3]]
            return ref.compare_selection(out, ref.polar_select(model, op[2], pref))
        if kind == "polarity":
            return ref.compare_polarity(out, model)
        if kind == "add_vertex":
            vid = model.add_vertex(op[2], op[3], op[4])
            return [] if out == vid else [f"add_vertex returned {out}"]
        _, _, src, dst, label, weight, mark, _ = op
        model.add_edge(src, dst, label, weight, mark)
        if (out.src, out.dst, out.label, ref.triple_of(out.weight),
                out.indeterminate) != (src, dst, label, weight, mark):
            return ["add_edge returned a different edge"]
        return []

    def alloc_probe(self, pn):
        return None


class Cli:
    """``python -m polarnet <cmd> FILE``, one child process at a time."""

    tail_pct = 90.0
    matrices_limit = 100
    commands = ("validate", "classify", "polarity", "select", "render",
                "convert")

    def __init__(self, seed: int, smoke: bool, corrupt: Corruption):
        self.seed = seed
        self.files = [(gen.smoke_size(n) if smoke else n, mode, fmt, cmd)
                      for n, mode, fmt, cmd in gen.CLI_DECK]
        self.corrupt = corrupt
        self.deck = len(self.files)

    def generate(self):
        """Models and argv lists; cheap enough to redo for the check.

        In each format the files without a fixed command get one each of
        the commands, then seeded extras; one small file gets ``matrices``.
        So every seed runs every command in both formats, and ``convert``
        runs in both directions.
        """
        rng = random.Random(self.seed)
        models = [gen.make_net(rng, n, mode) for n, mode, _, _ in self.files]
        cmds = [cmd for *_, cmd in self.files]
        for fmt in (".pnet", ".json"):
            free = [i for i, (_, _, f, cmd) in enumerate(self.files)
                    if f == fmt and cmd is None]
            drawn = list(self.commands)
            drawn += rng.sample(drawn, len(free) - 1 - len(drawn))
            rng.shuffle(drawn)
            small = [k for k, i in enumerate(free)
                     if self.files[i][0] <= self.matrices_limit]
            drawn.insert(rng.choice(small), "matrices")
            for i, cmd in zip(free, drawn):
                cmds[i] = cmd
        ops = []
        for i, (model, (_, _, fmt, _), cmd) in enumerate(zip(models, self.files, cmds)):
            argv = [cmd, str(self.workdir / f"net{i}{fmt}")]
            if cmd == "select":
                order = gen.popularity_order(model)
                vid = order[rng.choices(
                    range(len(order)), weights=gen.zipf_weights(len(order)))[0]]
                pref = rng.choice(("positive", "neutral", "negative"))
                argv += ["--vertex", model.labels[vid], "--prefer", pref]
            elif cmd == "convert":
                argv += ["--to", "json" if fmt == ".pnet" else "pnet"]
            ops.append(argv)
        return models, ops

    def setup(self, pn) -> list:
        """Write the files; return the argv lists."""
        models, ops = self.generate()
        for model, argv in zip(models, ops):
            path = Path(argv[1])
            text = gen.to_pnet(model) if path.suffix == ".pnet" else gen.to_json_doc(model)
            path.write_text(text, encoding="utf-8")
        return ops

    def expected(self, model, argv):
        cmd = argv[0]
        if cmd == "validate":
            return "OK\n"
        if cmd == "classify":
            return ref.cli_classify(model)
        if cmd == "polarity":
            return ref.cli_polarity(model)
        if cmd == "select":
            return ref.cli_select(model, model.labels.index(argv[3]), argv[5])
        if cmd == "render":
            return ref.dot(model)
        if cmd == "matrices":
            return ref.cli_matrices(model)
        return None  # convert: checked structurally

    def check_output(self, model, argv, code, text) -> list:
        if code != 0:
            return [f"{argv[0]} exited {code}"]
        if argv[0] == "convert":
            if argv[3] == "json":
                return ref.compare_json_text(self.corrupt.text(text), model)
            return ref.compare_pnet_text(self.corrupt.text(text), model)
        return ref.compare_text(text, self.expected(model, argv), argv[0])


# -- helpers for the library workloads -------------------------------------------

def triple_obj(core, triple):
    return core.ChannelTriple(*(core.NeutroValue(x, kind == "i")
                                for kind, x in triple))


def build_net(core, model):
    """Build a model through ``add_vertex``/``add_edge``."""
    net = core.SemanticNet(core.NetMode(model.mode), model.name, model.scale)
    for label, membership, mark in zip(model.labels, model.memberships,
                                       model.vertex_marks):
        net.add_vertex(label, triple_obj(core, membership), indeterminate=mark)
    for src, dst, label, weight, mark in model.edges:
        net.add_edge(src, dst, triple_obj(core, weight), label=label,
                     indeterminate=mark)
    return net


class Loop:
    """The closed loop: time each op, check each chunk, stop on decks."""

    def __init__(self, workload, pn, tracer=None, sampler=None):
        self.w, self.pn, self.tracer, self.sampler = workload, pn, tracer, sampler
        self.latencies: list = []
        self.failed = 0
        self.problems: list = []
        self.wall = 0.0

    def run(self, seconds: float, min_ops: int, max_ops: int) -> None:
        """Run until ``seconds`` of timed wall time and ``min_ops`` ops have
        passed, stopping only at deck boundaries, or before a chunk would
        take the count past ``max_ops``."""
        w, lat = self.w, self.latencies
        for chunk in w.chunks():
            if len(lat) + len(chunk) > max_ops:
                return
            outputs = self._time(chunk)
            self._check(chunk, outputs)
            # Free the outputs here, with the clock stopped, not inside the
            # next op.
            del outputs
            n = len(lat)
            at_boundary = n % w.deck == 0
            if at_boundary and self.sampler is not None:
                self.sampler.due(self.wall)
            if at_boundary and self.wall >= seconds and n >= min_ops:
                return

    def _time(self, chunk) -> list:
        w, pn, lat = self.w, self.pn, self.latencies
        clock = time.perf_counter
        outputs = []
        start = clock()
        for op in chunk:
            if self.tracer is not None:
                self.tracer.op_id = len(lat) + len(outputs)
            t0 = clock()
            try:
                outputs.append(w.run(pn, op))
            except Exception as exc:  # a failed op is counted, not fatal
                outputs.append(exc)
            lat.append(clock() - t0)
        self.wall += clock() - start
        return outputs

    def _check(self, chunk, outputs) -> None:
        for op, out in zip(chunk, outputs):
            if isinstance(out, Exception):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                problems = self.w.check(op, out)
            if problems:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"op {op[:2]}: {problems[0]}")


def summarize(latencies: list, wall: float) -> tuple:
    """End-to-end metrics of a run with ``wall`` seconds of timed wall time."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = tail_percentile(n)
    metrics = {
        "ops_per_s": n / wall,
        "op_p50_ms": ordered[rank(50.0, n) - 1] * 1e3,
        "op_tail_ms": ordered[rank(pct, n) - 1] * 1e3,
    }
    info = {"tail_percentile": pct, "samples": n,
            "samples_beyond_tail": n - rank(pct, n),
            "timed_wall_s": wall}
    return metrics, info


# -- runs -------------------------------------------------------------------------

def bounds_for(workload, smoke: bool) -> tuple:
    if smoke:
        return workload.deck, 10 * workload.deck
    low, high = op_bounds(workload.tail_pct)
    return max(low, workload.deck), high


class SetupSampler:
    """Set-up times: the run's own set-up, then set-ups in fresh processes
    spread evenly over the timed loop, so that one slow phase of a shared
    machine does not set the median."""

    def __init__(self, args, first_s: float, workdir: Path | None = None):
        self.args, self.workdir = args, workdir
        self.times = [first_s]
        self.every = args.seconds / SETUP_SAMPLES

    def due(self, wall: float) -> None:
        if len(self.times) < SETUP_SAMPLES and wall >= self.every * len(self.times):
            self.times.append(setup_child(self.args, self.workdir)[0])

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(setup_child(self.args, self.workdir)[0])
        return statistics.median(self.times)


def setup_child(args, workdir: Path | None) -> tuple:
    """Time one set-up in a fresh process; return (seconds, its result)."""
    cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--workdir", str(workdir)] if workdir else []
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return tuple(json.loads(out.stdout.splitlines()[-1]))


def setup_only(args) -> None:
    w = WORKLOADS[args.workload](args.seed, args.smoke, Corruption(None))
    pn = None
    if args.workload == "cli":
        w.workdir = Path(args.workdir)
        w.workdir.mkdir(parents=True, exist_ok=True)
    else:
        pn = polarnet_modules()
    t0 = time.perf_counter()
    payload = w.setup(pn)
    print(json.dumps([time.perf_counter() - t0, payload]))


def run_library(cls, args, corrupt) -> dict:
    pn = polarnet_modules()

    def make():
        return cls(args.seed, args.smoke, corrupt)

    if args.trace:
        return trace_library(make, pn, args)
    w = make()
    t0 = time.perf_counter()
    w.setup(pn)
    sampler = SetupSampler(args, time.perf_counter() - t0)
    settle(w)
    loop = Loop(w, pn, sampler=sampler)
    loop.run(args.seconds, *bounds_for(w, args.smoke))
    metrics, info = summarize(loop.latencies, loop.wall)
    metrics["peak_rss_mib"] = peak_rss_mib()
    metrics["setup_s"] = sampler.median()
    return result(len(loop.latencies), loop.failed, loop.problems, metrics, info)


def trace_library(make, pn, args) -> dict:
    """Untraced for half the run length, then the same ops again, from a
    fresh set-up, under spans.  The traced set-up has op id -1."""
    import spans
    w = make()
    w.setup(pn)
    settle(w)
    plain = Loop(w, pn)
    plain.run(args.seconds / 2.0, w.deck, 10 ** 9)
    n = len(plain.latencies)
    tracer = spans.Tracer()
    tracer.install()
    try:
        w = make()
        w.setup(pn)
        settle(w)
        traced = Loop(w, pn, tracer)
        traced.run(0.0, n, n)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced.wall, plain.wall,
                            alloc_peaks(pn, w.alloc_probe(pn), inverse=True))
    write_spans(tracer, args)
    return result(2 * n, plain.failed + traced.failed,
                  plain.problems + traced.problems, metrics,
                  {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall})


def settle(workload) -> None:
    """Collect set-up garbage before timing; freeze what set-up holds if
    the workload asks for it."""
    gc.collect()
    if workload.freeze_setup:
        gc.freeze()


def alloc_peaks(pn, net, inverse: bool) -> dict:
    """tracemalloc peaks of the tensor and, if the workload calls it, its
    inverse, on the largest net the workload gives them; apart from spans."""
    matrix = pn.matrix
    peaks = {"matrix.adjacency_tensor.alloc_peak_mib": 0.0,
             "matrix.from_matrices.alloc_peak_mib": 0.0}
    if net is None:
        return peaks
    mm = matrix.membership_matrix(net)
    tracemalloc.start()
    try:
        tensor = matrix.adjacency_tensor(net)
        peaks["matrix.adjacency_tensor.alloc_peak_mib"] = \
            tracemalloc.get_traced_memory()[1] / MIB
        if inverse:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            matrix.from_matrices(net.mode, net.name, net.scale, mm, tensor)
            peaks["matrix.from_matrices.alloc_peak_mib"] = \
                (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()
    return peaks


def layer_metrics(tracer, traced_wall, plain_wall, peaks) -> dict:
    import spans
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_ns[name] / 1e9
    parse_s = tracer.total_ns["dsl.parse_net"] / 1e9
    metrics["dsl.parse_net.lines_per_s"] = (tracer.parsed_lines / parse_s
                                            if parse_s else 0.0)
    metrics.update(peaks)
    metrics["cli.startup_s"] = cli_startup_s()
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    # Share of the traced wall time that spans of the timed ops cover; the
    # rest is the benchmark's own loop.
    covered = sum(end - start for _, start, end, parent, op in tracer.spans
                  if parent == -1 and op >= 0)
    metrics["trace.covered_ratio"] = covered / 1e9 / traced_wall
    return metrics


def cli_startup_s(pairs: int = 5) -> float:
    """Median of (import polarnet.cli) minus (pass), alternating."""
    env = child_env()
    diffs = []
    for _ in range(pairs):
        times = []
        for code in ("pass", "import polarnet.cli"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True)
            times.append(time.perf_counter() - t0)
        diffs.append(times[1] - times[0])
    return statistics.median(diffs)


def write_spans(tracer, args) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-seed{args.seed}.csv.gz")


def result(attempted, failed, problems, metrics, info) -> dict:
    info["problems"] = problems[:5]
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def run_cli(args, corrupt) -> dict:
    w = Cli(args.seed, args.smoke, corrupt)
    w.workdir = ROOT / ".perfbench_work" / f"cli-{args.seed}-{os.getpid()}"
    w.workdir.mkdir(parents=True)
    try:
        setup_s, ops = setup_child(args, w.workdir)
        if args.trace:
            return trace_cli(w, ops, args)
        sampler = SetupSampler(args, setup_s, w.workdir / "setup-samples")
        return loop_cli(w, ops, sampler, args)
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)


def loop_cli(w, ops, sampler, args) -> dict:
    """Run whole decks of commands through ``spawner.py``; check after."""
    low, high = bounds_for(w, args.smoke)
    latencies, peaks, codes, deck_walls = [], [], [], []
    outdir = w.workdir / "out"
    outdir.mkdir()
    job = {"argv0": [sys.executable, "-m", "polarnet"], "ops": ops,
           "outdir": str(outdir)}
    while len(latencies) + len(ops) <= high and (
            sum(deck_walls) < args.seconds or len(latencies) < low):
        job["first"] = len(latencies)
        deck = json.loads(subprocess.run(
            [sys.executable, str(HERE / "spawner.py")], input=json.dumps(job),
            stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
            env=child_env()).stdout)
        deck_walls.append(deck["wall"])
        for latency, code, peak in deck["ops"]:
            latencies.append(latency)
            codes.append(code)
            peaks.append(peak)
        sampler.due(sum(deck_walls))
    models, _ = w.generate()
    failed, problems = 0, []
    for k, code in enumerate(codes):
        i = k % len(ops)
        text = (outdir / f"{k}.out").read_text(encoding="utf-8")
        found = w.check_output(models[i], ops[i], code, text)
        if found:
            failed += 1
            problems.append(f"{ops[i][0]} {Path(ops[i][1]).name}: {found[0]}")
    metrics, info = summarize(latencies, sum(deck_walls))
    metrics["peak_rss_mib"] = max(peaks)
    metrics["setup_s"] = sampler.median()
    return result(len(latencies), failed, problems, metrics, info)


def trace_cli(w, ops, args) -> dict:
    """Replay the commands in-process through ``cli.main`` with stdout
    captured: whole decks untraced for half the run length, then the same
    decks traced."""
    import spans
    pn = polarnet_modules()
    cli = pn.cli
    models, _ = w.generate()
    state = {"failed": 0, "problems": [], "ops": 0}

    def replay(decks, tracer=None):
        start = time.perf_counter()
        for _ in range(decks):
            for model, argv in zip(models, ops):
                if tracer is not None:
                    tracer.op_id = state["ops"]
                out = stdio.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(stdio.StringIO()):
                    try:
                        code = cli.main(list(argv))
                    except SystemExit as exc:
                        code = exc.code
                state["ops"] += 1
                found = w.check_output(model, argv, code, out.getvalue())
                if found:
                    state["failed"] += 1
                    state["problems"].append(f"{argv[0]}: {found[0]}")
        return time.perf_counter() - start

    decks, plain_wall = 0, 0.0
    while decks == 0 or plain_wall < args.seconds / 2.0:
        plain_wall += replay(1)
        decks += 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall = replay(decks, tracer)
    finally:
        tracer.uninstall()
    matrices = [i for i, argv in enumerate(ops) if argv[0] == "matrices"]
    probe = None
    if matrices:
        biggest = max(matrices, key=lambda i: len(models[i].labels))
        probe = load_file(pn, ops[biggest][1])
    # The cli never calls from_matrices, so only the tensor is probed.
    metrics = layer_metrics(tracer, traced_wall, plain_wall,
                            alloc_peaks(pn, probe, inverse=False))
    write_spans(tracer, args)
    return result(state["ops"], state["failed"], state["problems"], metrics,
                  {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall})


def load_file(pn, path):
    text = Path(path).read_text(encoding="utf-8")
    return (pn.dsl.parse_net(text) if path.endswith(".pnet")
            else pn.io.from_json(text))


WORKLOADS = {"ingest": Ingest, "query": Query, "cli": Cli}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", choices=("ranking", "roundtrip"))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    corrupt = Corruption(args.corrupt)
    if args.workload == "cli":
        res = run_cli(args, corrupt)
    else:
        res = run_library(WORKLOADS[args.workload], args, corrupt)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
