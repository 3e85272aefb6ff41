"""Pipeline benchmark: time to analyse one recording, end to end and per module.

One process, one caller, no threads: a closed loop that analyses the
workload's recording again as soon as the previous analysis returns, for
``--seconds`` seconds.  Each analysis drives the public functions that the
``hypercode`` CLI commands call, in the README pipeline order, and
serialises every artifact as the CLI writes it.  See perfbench/README.md.

Usage:
    python3 perfbench/run.py --workload clean-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, both modes

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "hypercode" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hypercode sources under {ROOT / 'src'}")

_import_start = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import hypercode  # noqa: E402
from hypercode import codes, homology, synth, topology  # noqa: E402
from hypercode.compare import compare_levels  # noqa: E402
from hypercode.errors import HypercodeError  # noqa: E402
from hypercode.hyperstructure import BuildConfig, build_hyperstructure  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

DEFAULT_SEED = 1
SETUP_REPEATS = 3
# Every time is reported in seconds at a reference host speed: its wall time
# scaled by REFERENCE_CALIBRATION_S over the time of a calibration loop run
# just before and after it (and at call boundaries every CHECKPOINT_S).  The
# shared 2-vCPU machine this was tuned on switches between speeds up to 1.7x
# apart for minutes at a time: run medians of raw wall time spread 0.31-0.38
# (quartile distance over median) across ten runs, scaled ones about 0.1.
REFERENCE_CALIBRATION_S = 0.05
CHECKPOINT_S = 1.0
# Address-space ceiling for the benchmark process, so that a face-enumeration
# blow-up ends as a counted MemoryError instead of a process killed by the OS.
# noisy-wide peaks near 0.6 GB of resident memory.
ADDRESS_SPACE_BYTES = 3 << 30
DT = 0.01  # events-subset bin width in seconds


@dataclass(frozen=True)
class Workload:
    neurons: int
    bins: int
    assemblies: int
    noise: float
    source: str  # "matrix" (CSV text) or "events" (shuffled (neuron, time) list)
    decomposition: str
    homology_levels: int | None  # analyse levels 1..this; None = every level
    nerve: bool
    compare: bool


WORKLOADS = {
    # Noise-free and long: the level-1 vocabulary saturates early, so the
    # builder's per-bin rescans dominate.
    "clean-long": Workload(30, 3000, 10, 0.0, "matrix", "exact-cover", None, True, True),
    # ROADMAP's L recording: noise makes a ~160k-simplex level-1 filtration,
    # so homology dominates.  The nerve exceeds a minute here (not run).
    "noisy-wide": Workload(40, 1000, 15, 0.01, "matrix", "exact-cover", None, False, True),
    # Event-list ingest and subset realization: many higher-level bonds.  The
    # level-3 complex has dimension 49, so homology stops at level 2.
    "events-subset": Workload(30, 2000, 10, 0.002, "events", "subset-realization", 2, False, False),
}

# Same recipes at a size that runs in well under a second (smoke test).
TINY = {
    "clean-long": Workload(12, 120, 4, 0.0, "matrix", "exact-cover", None, True, True),
    "noisy-wide": Workload(14, 80, 5, 0.02, "matrix", "exact-cover", None, False, True),
    "events-subset": Workload(12, 100, 4, 0.01, "events", "subset-realization", 2, False, False),
}

# sha256 of the hyperstructure JSON and the barcode CSV at DEFAULT_SEED.
DIGESTS = {
    ("full", "clean-long"): (
        "f0ccc809152cb367ca2dc5c35770a0afb753af29b99435b63719c7e7527a1078",
        "b30d4986902be40b9d5c5486750304cce12f43ffe89b8715edbd54eb3476bf5d",
    ),
    ("full", "noisy-wide"): (
        "fc2d584c4be7efdea5866860496165fb1ddcb3dc71330f3173bf6b962cd38a43",
        "ba4567be40fede850c5fc6f4902380fb76ba48c60691545472c2827fae4e9fbe",
    ),
    ("full", "events-subset"): (
        "82de3574000c23c9d6aacfb65d5d1fdc794a3abac2143a4e6995636b8df05321",
        "875ba0b18dbb8ff3de12c54de094737470bb8cd12906b63e1c091b838279a317",
    ),
    ("tiny", "clean-long"): (
        "0634b3879a2e3dddbb5837b6ba1ba38004fbb8aa449afe8be4203ecfc08f87ef",
        "e99510d98918745d894c5b01f8c246db491cbbd26b05a1f1d2c21441c3b002e4",
    ),
    ("tiny", "noisy-wide"): (
        "8d0cb3cfd07762be7765eef2b48ac0783349e112e699c9de10a39f24fb19fe79",
        "0f5bfc1d65873977abb0b61c2d86b67e11c28d5fab68159f0f35fbfd7b6ad2b1",
    ),
    ("tiny", "events-subset"): (
        "1af7d995568d11bacc7149d507d3cc2cd3449a88900070e38f67c6d97f101a75",
        "888447793f12b35f0ca5b122fbf54b9384696dea3e3123b789cfb7af3be1cb59",
    ),
}

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "analyze_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops": "ratio",
}

# Span name -> per-layer busy-time metric.  Spans are inclusive: the
# library's own nested calls are not traced separately.
LAYER_OF_SPAN = {
    "codes.parse_spike_matrix": "codes.ingest_s",
    "codes.bin_event_list": "codes.ingest_s",
    "hyperstructure.build_hyperstructure": "hyperstructure.build_s",
    "topology.level_complex": "topology.level_complex_s",
    "topology.nerve": "topology.nerve_s",
    "homology.frequency_filtration": "homology.filtration_s",
    "homology.persistence": "homology.persistence_s",
    "homology.betti": "homology.betti_s",
    "compare.compare_levels": "compare.compare_s",
    "cli.write_log": "cli.serialize_s",
    "cli.write_hyperstructure": "cli.serialize_s",
    "cli.write_barcodes": "cli.serialize_s",
    "cli.write_betti": "cli.serialize_s",
    "cli.write_nerve": "cli.serialize_s",
}

PER_LAYER = {
    "codes.ingest_s": "s",
    "codes.bins": "count",
    "codes.spikes": "count",
    "hyperstructure.build_s": "s",
    "hyperstructure.bins_per_s": "1/s",
    "hyperstructure.bonds.l1": "count",
    "hyperstructure.bonds.l2": "count",
    "hyperstructure.bonds.l3": "count",
    "topology.level_complex_s": "s",
    "topology.maximal_simplices": "count",
    "topology.level3_dim": "dim",
    "topology.nerve_s": "s",
    "topology.nerve.vertices": "count",
    "topology.nerve.maximal": "count",
    "homology.filtration_s": "s",
    "homology.persistence_s": "s",
    "homology.betti_s": "s",
    "homology.simplices": "count",
    "homology.boundary_nonzeros": "count",
    "homology.intervals": "count",
    "homology.cap_simplices": "count",
    "compare.compare_s": "s",
    "compare.failed": "ratio",
    "synth.generate_s": "s",
    "cli.serialize_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "host.speed": "ratio",
    "host.analyze_wall_s": "s",
}


# ------------------------------------------------------------ host speed


def calibration_s() -> float:
    """Wall time of a fixed loop of the pipeline's kind of work: tuples, dicts, sets, sorting."""
    start = time.perf_counter()
    rng = random.Random(0)
    keys = [(rng.randrange(5000), rng.randrange(5000), rng.randrange(5000)) for _ in range(15000)]
    index = {key: i for i, key in enumerate(keys)}
    sum(index[key] for key in reversed(keys))
    sets = [frozenset(key) for key in keys]
    sum(1 for a, b in zip(sets, sets[1:]) if a <= b)
    sorted(keys)
    return time.perf_counter() - start


class SpeedClock:
    """Times intervals in seconds at the reference host speed.

    An interval is cut into segments at the first call boundary after every
    CHECKPOINT_S; each segment is scaled by the calibrations just before and
    after it.  Calibration time is not part of the interval.
    """

    def __init__(self):
        self.before = calibration_s()
        self.factors: list[float] = []
        self.mark: float | None = None

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self.mark = time.perf_counter()

    def checkpoint(self) -> None:
        if self.mark is not None and time.perf_counter() - self.mark >= CHECKPOINT_S:
            self._add_segment(time.perf_counter() - self.mark)
            self.mark = time.perf_counter()

    def stop(self) -> None:
        """End the interval; :meth:`settle` calibrates for its last segment."""
        self.pending = time.perf_counter() - self.mark
        self.mark = None

    def settle(self) -> tuple[float, float]:
        """Wall and reference-speed seconds of the interval."""
        self._add_segment(self.pending)
        return self.wall, self.scaled

    def _add_segment(self, wall_s: float) -> None:
        after = calibration_s()
        self.factors.append(2 * REFERENCE_CALIBRATION_S / (self.before + after))
        self.before = after
        self.wall += wall_s
        self.scaled += wall_s * self.factors[-1]


# ---------------------------------------------------------------- inputs


def assembly_spec(wl: Workload, schedule_seed: int, noise_seed: int) -> synth.SynthSpec:
    """ROADMAP's baseline recipe: assemblies of 2-5 neurons, each bin the union of 1-3.

    The assemblies (and, for schedule_seed 1, the schedule) are drawn from
    random.Random(1), which reproduces the ROADMAP baseline recordings.
    """
    rng = random.Random(1)
    patterns = {}
    for p in range(wl.assemblies):
        members = rng.sample(range(wl.neurons), rng.randint(2, 5))
        patterns[f"a{p}"] = codes.Pattern.of(members)
    names = list(patterns)
    if schedule_seed != 1:
        rng = random.Random(schedule_seed)
    schedule = tuple(
        (b, tuple(rng.sample(names, rng.randint(1, 3)))) for b in range(wl.bins)
    )
    return synth.SynthSpec(wl.neurons, patterns, schedule, wl.noise, noise_seed)


def relabel(grid: list[list[int]], seed: int) -> list[list[int]]:
    """Permute neuron rows by a seeded permutation."""
    perm = random.Random(seed).sample(range(len(grid)), len(grid))
    out: list[list[int]] = [[] for _ in grid]
    for i, row in enumerate(grid):
        out[perm[i]] = row
    return out


def event_list(grid: list[list[int]], seed: int) -> list[tuple[int, float]]:
    """One spike per active cell, strictly inside its bin, in shuffled order."""
    rng = random.Random(seed)
    events = [
        (i, (j + rng.uniform(0.25, 0.75)) * DT)
        for i, row in enumerate(grid)
        for j, cell in enumerate(row)
        if cell
    ]
    rng.shuffle(events)
    return events


@dataclass
class Inputs:
    payload: object  # CSV text or event list: all the program receives
    reference_log: object | None  # log parsed from the matrix (events only)
    second: object | None  # second session's hyperstructure (compare only)
    spikes: int
    generate_s: float


def set_up(wl: Workload, seed: int) -> Inputs:
    """Generate the recording from the seed; build the session compare uses."""
    spec = assembly_spec(wl, schedule_seed=1, noise_seed=7)
    start = time.perf_counter()
    grid = synth.synth_generate(spec)
    generate_s = time.perf_counter() - start
    grid = relabel(grid, seed)
    spikes = sum(map(sum, grid))
    reference = None
    if wl.source == "matrix":
        payload = synth.matrix_to_csv(grid)
    else:
        payload = event_list(grid, seed)
        _, reference = codes.parse_spike_matrix(synth.matrix_to_csv(grid))
    second = None
    if wl.compare:
        other = relabel(synth.synth_generate(assembly_spec(wl, 2, 8)), seed)
        _, log = codes.parse_spike_matrix(synth.matrix_to_csv(other))
        second = build_hyperstructure(log, BuildConfig(decomposition=wl.decomposition))
    return Inputs(payload, reference, second, spikes, generate_s)


# ------------------------------------------------------- calls and spans


class Calls:
    """Counts calls into the library and, when tracing, records their spans.

    A call that raises HypercodeError or MemoryError is counted as failed
    and returns None; any other exception ends the run.
    """

    def __init__(self, tracing: bool, clock: SpeedClock | None = None):
        self.tracing = tracing
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failed_by_name: dict[str, int] = {}
        self.errors: dict[str, int] = {}  # distinct failure message -> count
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.recording = 0
        self.parent: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter() if self.tracing else 0.0
        try:
            return fn(*args, **kwargs)
        except (HypercodeError, MemoryError) as exc:
            self.fail(name, f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracing:
                self.spans.append(
                    (name, start, time.perf_counter(), self.parent, self.recording)
                )
            if self.clock is not None:
                self.clock.checkpoint()

    def fail(self, name: str, message: str) -> None:
        self.failed += 1
        self.failed_by_name[name] = self.failed_by_name.get(name, 0) + 1
        if message in self.errors or len(self.errors) < 20:
            self.errors[message] = self.errors.get(message, 0) + 1

    def open_root(self, name: str) -> int:
        self.spans.append((name, time.perf_counter(), math.nan, None, self.recording))
        self.parent = len(self.spans) - 1
        return self.parent

    def close_root(self, index: int) -> None:
        name, start, _, parent, rec = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, rec)
        self.parent = None


def dumps(obj) -> str:
    """JSON exactly as the CLI writes its artifacts."""
    return json.dumps(obj, indent=2) + "\n"


@dataclass
class Outputs:
    log: object = None
    hs: object = None
    hs_json: str | None = None
    levels: list = field(default_factory=list)  # (level, complex, filtration, barcode, betti)
    barcodes_csv: str | None = None
    nerve: object = None


def analyze(wl: Workload, inputs: Inputs, calls: Calls, cap: int) -> Outputs:
    """ingest -> build -> per level complex, persist, betti -> nerve, as the CLI runs them."""
    out = Outputs()
    if wl.source == "matrix":
        parsed = calls.call("codes.parse_spike_matrix", codes.parse_spike_matrix, inputs.payload)
        out.log = parsed[1] if parsed is not None else None
    else:
        out.log = calls.call(
            "codes.bin_event_list", codes.bin_event_list, inputs.payload, DT, wl.neurons
        )
    if out.log is None:
        return out
    calls.call("cli.write_log", lambda: dumps(codes.log_to_json_obj(out.log)))
    hs = out.hs = calls.call(
        "hyperstructure.build_hyperstructure",
        build_hyperstructure,
        out.log,
        BuildConfig(decomposition=wl.decomposition),
    )
    if hs is None:
        return out
    out.hs_json = calls.call("cli.write_hyperstructure", lambda: dumps(hs.to_json_obj()))
    last = hs.k if wl.homology_levels is None else min(hs.k, wl.homology_levels)
    for i in range(1, hs.k + 1):
        k = calls.call("topology.level_complex", topology.level_complex, hs, i)
        if k is None or i > last:
            out.levels.append((i, k, None, None, None))
            continue
        f = calls.call("homology.frequency_filtration", homology.frequency_filtration, hs, i)
        barcode = None if f is None else calls.call("homology.persistence", homology.persistence, f)
        betti = calls.call("homology.betti", homology.betti, k, max_dim=min(max(k.dim, 0), cap - 1))
        if betti is not None:
            calls.call("cli.write_betti", lambda: ",".join(str(x) for x in betti))
        out.levels.append((i, k, f, barcode, betti))
    sequence = [(i, barcode) for i, _, _, barcode, _ in out.levels if barcode is not None]
    out.barcodes_csv = calls.call("cli.write_barcodes", homology.barcodes_to_csv, sequence)
    if wl.nerve:
        out.nerve = calls.call("topology.nerve", topology.nerve, hs, topology.NerveConfig())
        if out.nerve is not None:
            calls.call("cli.write_nerve", lambda: dumps(out.nerve.to_json_obj()))
    return out


def check_outputs(wl: Workload, out: Outputs, inputs: Inputs) -> list[tuple[str, str]]:
    """Failed output checks as (call whose output is wrong, message)."""
    failures = []
    for level, _, _, barcode, betti in out.levels:
        if barcode is None or betti is None:
            continue
        # Infinite bars per dimension must equal the rank path's Betti numbers.
        for d, expected in enumerate(betti):
            infinite = sum(1 for _, death in barcode.in_dim(d) if math.isinf(death))
            if infinite != expected:
                failures.append((
                    "homology.betti",
                    f"level {level} dim {d}: {infinite} infinite bars, betti {expected}",
                ))
    if wl.source == "events" and out.log is not None and out.log != inputs.reference_log:
        failures.append(("codes.bin_event_list", "binned log differs from the parsed matrix"))
    return failures


def counts_of(out: Outputs, cap: int) -> dict:
    """Work done per recording, counted from one analysis's outputs."""
    bonds = [len(level) for level in out.hs.levels] if out.hs is not None else []
    filtrations = [f for _, _, f, _, _ in out.levels if f is not None]
    complexes = {i: k for i, k, _, _, _ in out.levels if k is not None}
    return {
        "bins": len(out.log.bins) if out.log is not None else 0,
        "bonds": bonds + [0] * (3 - len(bonds)),
        "maximal": sum(len(k.maximal_simplices) for k in complexes.values()),
        "level3_dim": complexes[3].dim if 3 in complexes else -1,
        "simplices": sum(len(f.simplices) for f in filtrations),
        "nonzeros": sum(len(s) for f in filtrations for s in f.simplices if len(s) > 1),
        "intervals": sum(len(b.intervals) for _, _, _, b, _ in out.levels if b is not None),
        "cap_simplices": sum(
            1 for f in filtrations if f.truncated for s in f.simplices if len(s) == cap + 1
        ),
        "nerve": (
            (len(out.nerve.vertex_labels), len(out.nerve.maximal_simplices))
            if out.nerve is not None
            else (0, 0)
        ),
    }


def digest(text: str | None) -> str | None:
    return hashlib.sha256(text.encode()).hexdigest() if text is not None else None


def digest_checks(got: tuple, want: tuple, what: str) -> list[tuple[str, str]]:
    """Hyperstructure JSON and barcode CSV digests against ``want``."""
    return [
        (call, f"{artifact} digest {g} differs from the {what} {w}")
        for call, artifact, g, w in zip(
            ("hyperstructure.build_hyperstructure", "homology.persistence"),
            ("hyperstructure JSON", "barcode CSV"),
            got,
            want,
        )
        if g != w
    ]


# ------------------------------------------------------------------ run


def tail(samples: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it, floored at the median.

    Below 22 samples no sample above the median has ten beyond it, so the
    tail reads as the median: the run holds no evidence of a slower tail.
    """
    ordered = sorted(samples)
    median = statistics.median(ordered)
    return max(median, ordered[len(ordered) - 11]) if len(ordered) > 10 else median


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    digests: dict | None = None,
) -> dict:
    """Set up, measure for ``seconds``, check outputs; return the result and context."""
    wl = (WORKLOADS if size == "full" else TINY)[workload]
    digests = DIGESTS if digests is None else digests
    cap = homology.resolve_dim_cap()

    clock = SpeedClock()
    import_s = IMPORT_S * REFERENCE_CALIBRATION_S / clock.before
    setup_times, generate_times = [], []
    for _ in range(SETUP_REPEATS):
        clock.start()
        inputs = set_up(wl, seed)
        clock.stop()
        setup_times.append(clock.settle()[1])
        generate_times.append(inputs.generate_s * clock.factors[-1])

    calls = Calls(tracing=False, clock=clock)
    untraced, traced, wall = [], [], []
    factor_of: dict[int, float] = {}  # recording -> its speed factor
    compare_failed = compare_attempted = 0
    bad_checks: list[str] = []
    expected = digests.get((size, workload)) if seed == DEFAULT_SEED else None
    first = counts = None
    begin = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - begin < seconds or (trace and not traced):
        calls.tracing = trace and n % 2 == 1
        calls.recording = n
        root = calls.open_root("analyze") if calls.tracing else None
        clock.start()
        out = analyze(wl, inputs, calls, cap)
        clock.stop()
        if root is not None:
            calls.close_root(root)

        checks = check_outputs(wl, out, inputs)
        got = (digest(out.hs_json), digest(out.barcodes_csv))
        first = first or got
        checks += digest_checks(got, first, "first iteration's")
        if expected is not None:
            checks += digest_checks(got, expected, "recorded")
        for name, message in checks:
            calls.fail(name, f"{name}: {message}")
            bad_checks.append(message)
        counts = counts or counts_of(out, cap)

        if wl.compare and out.hs is not None:
            root = calls.open_root("compare") if calls.tracing else None
            before = calls.failed
            calls.call("compare.compare_levels", compare_levels, out.hs, inputs.second)
            compare_attempted += 1
            compare_failed += calls.failed - before
            if root is not None:
                calls.close_root(root)
        out = None  # calibrate without the recording's complexes in memory
        elapsed, scaled = clock.settle()
        wall.append(elapsed)
        (traced if calls.tracing else untraced).append(scaled)
        factor_of[n] = scaled / elapsed
        n += 1

    bonds = counts["bonds"]
    context = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "gf2_backend": hypercode.GF2_BACKEND,
        "dim_cap": cap,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("HYPERCODE_")},
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0],
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "analyze_samples_s": {"untraced": untraced, "traced": traced},
        "analyze_wall_s": wall,
        "speed_factors": clock.factors,
        "digests": {"hyperstructure_json": first[0], "barcodes_csv": first[1]},
        "failed_by_call": calls.failed_by_name,
        "errors": calls.errors,
    }
    if not trace:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "analyze_s": statistics.median(untraced),
            "analyze_tail_s": tail(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ops": (calls.attempted - calls.failed) / calls.attempted,
        }
        units = END_TO_END
    else:
        busy = layer_busy(calls.spans, factor_of)
        nerve_v, nerve_m = counts["nerve"]
        build_s = busy.get("hyperstructure.build_s", 0.0)
        metrics = {
            **{name: busy.get(name, 0.0) for name in set(LAYER_OF_SPAN.values())},
            "codes.bins": counts["bins"],
            "codes.spikes": inputs.spikes,
            "hyperstructure.bins_per_s": counts["bins"] / build_s if build_s else 0.0,
            "hyperstructure.bonds.l1": bonds[0],
            "hyperstructure.bonds.l2": bonds[1],
            "hyperstructure.bonds.l3": bonds[2],
            "topology.maximal_simplices": counts["maximal"],
            "topology.level3_dim": counts["level3_dim"],
            "topology.nerve.vertices": nerve_v,
            "topology.nerve.maximal": nerve_m,
            "homology.simplices": counts["simplices"],
            "homology.boundary_nonzeros": counts["nonzeros"],
            "homology.intervals": counts["intervals"],
            "homology.cap_simplices": counts["cap_simplices"],
            "compare.failed": compare_failed / compare_attempted if compare_attempted else 0.0,
            "synth.generate_s": statistics.median(generate_times),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
            "trace.spans": sum(1 for s in calls.spans if s[4] == calls.spans[-1][4]),
            "host.speed": statistics.median(clock.factors),
            "host.analyze_wall_s": statistics.median(wall),
        }
        units = PER_LAYER
        write_spans(calls.spans, workload, seed)
    result = {
        "correct": not bad_checks,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {"context": context, "result": result}


def layer_busy(spans, factor_of: dict[int, float]) -> dict[str, float]:
    """Median over traced recordings of each layer's summed span time, speed-scaled."""
    per_recording: dict[int, dict[str, float]] = {}
    for name, start, end, _, rec in spans:
        layer = LAYER_OF_SPAN.get(name)
        if layer is not None:
            totals = per_recording.setdefault(rec, {})
            totals[layer] = totals.get(layer, 0.0) + (end - start) * factor_of[rec]
    layers = {layer for totals in per_recording.values() for layer in totals}
    return {
        layer: statistics.median(t.get(layer, 0.0) for t in per_recording.values())
        for layer in layers
    }


def write_spans(spans, workload: str, seed: int) -> None:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    rows = [
        {"name": n, "start": s, "end": e, "parent": p, "recording": r}
        for n, s, e, p, r in spans
    ]
    (out_dir / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(rows) + "\n")


def limit_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_BYTES)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def run_all(seconds: float, seed: int, size: str) -> int:
    """Run every workload untraced and traced, one process each; print a table."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--size", size,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(
                f"{workload} trace={trace} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for name, m in result["metrics"].items():
                print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seconds, args.seed, args.size)
    limit_address_space()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for message, count in report["context"]["errors"].items():
        print(f"{count} x {message}", file=sys.stderr)
    print(json.dumps({"context": report["context"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
