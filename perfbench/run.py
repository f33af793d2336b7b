"""End-to-end and per-layer benchmark of the `permclass` command line.

    python3 perfbench/run.py --workload {table1,partition,predict_large,all}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process runs a closed loop with a
single client: each `permclass.cli.main` command starts when the previous
one has finished.  The program is imported from `src/`.

--trace 0 times untraced commands for S seconds and reports the end-to-end
metrics.  Every timed set-up and command is bracketed by the workload's
probe (see probes.py), and its time is scaled by the probe's reference
time over its measured time, so that most of the drift in the machine's
speed cancels; unscaled times are printed and saved beside scaled ones.  --trace 1 alternates untraced and traced commands for S seconds,
then makes one more command with counters and `tracemalloc` on, and
reports the per-layer metrics.  Either way every command's outputs are
checked, a human-readable report and the environment are printed, and the
last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only if
every command succeeded and passed the output check.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads.  One thread is within nproc on
# any machine; the workloads' BLAS calls are matrix-vector sized, and a
# single thread keeps the spread between runs low on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# the program's own thread pool stays at its default of one worker
os.environ.pop("PERMCLASS_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from probes import cpu_seconds  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS, read_outputs  # noqa: E402

SETUP_REPEATS = 5
REFERENCES = HERE / "references.json"

# (metric, unit, better); `setup_s` is the median of SETUP_REPEATS set-ups
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _blas_threads_reported():
    """Thread count OpenBLAS itself reports, when its library can be found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "permclass").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, input_seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_reported(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "input_seed": input_seed,
        "held_out_seed": HELD_OUT_SEED,
        "load": "closed loop, one client, in-process permclass.cli.main",
    }


def fresh_import() -> None:
    """Import the program anew, as every command-line start does."""
    for name in [m for m in sys.modules
                 if m == "permclass" or m.startswith("permclass.")]:
        del sys.modules[name]
    importlib.import_module("permclass.cli")


def _quiet(call):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        result = call()
    return result, err.getvalue()


class Runner:
    """One closed-loop client issuing `permclass` commands in this process."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: list[bytes | None] = []

    def setup_cli(self, argv):
        code, err = _quiet(lambda: self.cli_main(argv))
        if code != 0:
            raise RuntimeError(f"set-up command {argv[0]} failed: {err.strip()}")

    def command(self, state, wrap=None) -> None:
        """Run the workload's command once and keep its outputs."""
        def main():
            return self.cli_main(state["argv"])

        self.attempted += 1
        try:
            code, err = _quiet(main if wrap is None else lambda: wrap(main))
        except Exception:
            code, err = None, traceback.format_exc()
        if code != 0:
            self.errors.append(f"command exited with {code}: {err.strip()[-400:]}")
            self.outputs.append(None)
        else:
            self.outputs.append(read_outputs(state))

    def check(self, workload, state, reference) -> list[str]:
        """Check the final outputs; any command whose outputs differ fails."""
        problems = list(self.errors)
        try:
            problems += workload.check(state, workload.result(state), reference)
            final = read_outputs(state)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
            final = None
        if len(problems) > len(self.errors):
            self.failed = self.attempted
            return problems
        differ = sum(1 for out in self.outputs if out != final)
        if differ:
            problems.append(f"{differ} command(s) wrote outputs that differ "
                            "from the checked ones")
        self.failed = differ
        return problems


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            references: dict) -> dict:
    """Set up, run and check one workload; return the full report.

    A set-up imports the program afresh and writes the workload's inputs.
    Set-ups alternate with the first commands, so that they sample the
    machine across the run as the commands do; every command uses the
    first set-up's inputs.
    """
    runner = Runner(None)
    states: list[dict] = []

    def set_up():
        fresh_import()
        runner.cli_main = sys.modules["permclass.cli"].main
        here = work / f"setup{len(states)}"
        states.append(workload.setup(here, seed, runner.setup_cli))

    # events[k] = (kind, wall s, cpu s) sits between probes[k] and probes[k + 1]
    probes = [workload.probe()]
    events: list[tuple[str, float, float]] = []

    def timed(kind, fn):
        c0, t0 = cpu_seconds(), perf_counter()
        fn()
        events.append((kind, perf_counter() - t0, cpu_seconds() - c0))
        probes.append(workload.probe())

    tracer = tracing.Tracer()
    traced_raw: dict[int, float] = {}
    t_end = perf_counter() + seconds
    while True:
        if len(states) < SETUP_REPEATS:
            t0 = perf_counter()
            timed("setup", set_up)
            t_end += perf_counter() - t0
        timed("command", lambda: runner.command(states[0]))
        if trace:
            with tracing.patched(tracer.wrap):
                timed("traced", lambda: runner.command(states[0], wrap=tracer.root))
            traced_raw[tracer.run_id] = events[-1][1]
        if perf_counter() >= t_end:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(states) < SETUP_REPEATS:
        timed("setup", set_up)

    counters = tracing.Counters()
    if trace:
        with tracing.patched(counters.wrap):
            runner.command(states[0])

    state = states[0]
    reference = references.get(workload.name, {}).get(str(state["input_seed"]))
    problems = runner.check(workload, state, reference)
    items = workload.items(workload.result(state)) if not problems else 0

    samples: dict[str, list[float]] = {}
    ref = workload.probe.reference_s
    for k, (kind, wall, cpu) in enumerate(events):
        probe_wall = (probes[k][0] + probes[k + 1][0]) / 2
        probe_cpu = (probes[k][1] + probes[k + 1][1]) / 2
        samples.setdefault(f"{kind}_raw_wall_s", []).append(wall)
        samples.setdefault(f"{kind}_wall_s", []).append(wall * ref / probe_wall)
        samples.setdefault(f"{kind}_cpu_s", []).append(cpu * ref / probe_cpu)
    walls, cpus = samples["command_wall_s"], samples["command_cpu_s"]
    end_to_end = {
        "setup_s": median(samples["setup_wall_s"]),
        "wall_s": median(walls),
        "items_per_s": items / median(walls),
        "cpu_s": median(cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "workload": workload.name,
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": problems,
        "environment": environment(seed, state["input_seed"]),
        "reference_probe_s": ref,
        "probes": probes,
        "samples": samples,
        "items": items,
        "end_to_end": end_to_end,
    }
    if trace:
        untraced = median(walls)
        overhead = (median(samples["traced_wall_s"]) - untraced) / untraced
        layer = tracing.span_metrics(tracer.spans, traced_raw, overhead)
        layer.update(counters.metrics())
        report["per_layer"] = {m: float(layer.get(m, 0.0))
                               for m, _, _ in tracing.PER_LAYER}
        report["counter_bases"] = counters.bases()
        report["spans"] = tracer.to_jsonl()
    return report


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _spread(xs: list[float], unit: str) -> str:
    high = tracing.high_percentile(xs)
    tail = (f"p{high[0]:.0f} {_fmt(high[1])} {unit}" if high else
            "no percentile above p50 has 10 samples beyond it")
    return f"median of n={len(xs)}; {tail}"


def render(report: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric by name, with units and counts."""
    name = report["workload"]
    samples = report["samples"]
    lines = [f"# environment {json.dumps(report['environment'], sort_keys=True)}"]
    attempted, failed = report["attempted"], report["failed"]
    if trace:
        for kind in ("command", "traced"):
            lines.append(f"{name} {kind} wall_s = "
                         f"{_fmt(median(samples[kind + '_wall_s']))} s "
                         f"(median of n={len(samples[kind + '_wall_s'])})")
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        for metric, value in report["per_layer"].items():
            lines.append(f"{name} {metric} = {_fmt(value)} {units[metric]}")
        lines.append(f"{name} counter bases {json.dumps(report['counter_bases'])}")
    else:
        raw = {"setup_s": "setup_raw_wall_s", "wall_s": "command_raw_wall_s"}
        scaled = {"setup_s": "setup_wall_s", "wall_s": "command_wall_s",
                  "cpu_s": "command_cpu_s"}
        for metric, unit, _ in END_TO_END:
            note = ""
            if metric in scaled:
                xs = samples[scaled[metric]]
                note = f"  ({_spread(xs, unit)}"
                if metric in raw:
                    note += f"; unscaled median {_fmt(median(samples[raw[metric]]))} {unit}"
                note += ")"
            lines.append(f"{name} {metric} = {_fmt(report['end_to_end'][metric])} "
                         f"{unit}{note}")
        probes = [w for w, _ in report["probes"]]
        lines.append(f"{name} probe wall = {_fmt(median(probes))} s (median of "
                     f"n={len(probes)}; times above are scaled to "
                     f"{report['reference_probe_s']} s)")
    lines.append(f"{name} failed_frac = {_fmt(failed / attempted)} "
                 f"({failed} of {attempted} commands)")
    for problem in report["problems"]:
        lines.append(f"{name} CHECK FAILED: {problem}")
    return lines


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        values = report["per_layer"]
    else:
        units = {m: u for m, u, _ in END_TO_END}
        values = report["end_to_end"]
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "permclass" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'permclass'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that each peak RSS is its own
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace", str(args.trace)]
                                ).returncode
                 for name in sorted(WORKLOADS)]
        return max(codes)
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    name = args.workload
    out_dir = ROOT / ".perfbench"
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    work = out_dir / "work" / f"{tag}-{os.getpid()}"
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    try:
        report = measure(WORKLOADS[name], args.seed, args.seconds, trace, work,
                         references)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = report.pop("spans", None)
    if spans is not None:
        (results / f"{tag}.spans.jsonl").write_text(spans, encoding="utf-8")
    (results / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n",
                                         encoding="utf-8")
    for line in render(report, trace):
        print(line)
    print(json.dumps(result_line(report, trace)), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
