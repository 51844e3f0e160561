"""pcnsim layered campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pcnsim is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing installed: it
repeats the workload's campaign, each time on a fresh simulation seed drawn
from ``--seed``, for ``--seconds`` and reports medians over the repetitions.
Its times are scaled to a reference host speed (see ``reference.py``).
``--trace 1`` is the separate traced run that reports the per-layer metrics.
The metric names and units come from ``BENCHMARK.json``.  Human-readable
lines go first; the last line of standard output is one JSON object.
Outputs, hashes and the trace file are written under ``.perfbench/NAME/``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
IMPORT_REPS = 15
SETUP_REPS = 5
# repetition i of a campaign runs on base seed --seed + i * REP_SEED_STRIDE, so
# repetition 0 is the one the CLI recipes and the recorded hashes describe
REP_SEED_STRIDE = 1_000_003
# import time of the package in a fresh interpreter (the set-up every use
# pays), bracketed by the reference kernel in that interpreter
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import reference; "
                "before = reference.samples(); t = time.perf_counter(); import pcnsim; "
                "seconds = time.perf_counter() - t; kernel = before + reference.samples(); "
                "print(seconds, sum(kernel) / len(kernel))")


def load_pcnsim():
    """Import pcnsim from this checkout's src/; exit with an error when there is none."""
    if not (SRC / "pcnsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pcnsim sources under {SRC}; run from a pcnsim checkout")
    sys.path.insert(0, str(SRC))
    import pcnsim
    import pcnsim.cli  # noqa: F401  (parity check)
    if SRC not in Path(pcnsim.__file__).resolve().parents:
        sys.exit(f"perfbench: imported pcnsim from {pcnsim.__file__}, not from {SRC}")
    return pcnsim


def import_seconds() -> float:
    """Scaled seconds of ``import pcnsim`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    seconds, kernel_s = map(float, done.stdout.split())
    return reference.scaled(seconds, kernel_s)


def timed(fn, *args):
    """fn(*args), its wall seconds, and the mean reference kernel time around it."""
    # each timed region starts from a collected heap, not the last one's garbage
    gc.collect()
    kernel = reference.samples()
    start = time.perf_counter()
    value = fn(*args)
    seconds = time.perf_counter() - start
    kernel += reference.samples()
    return value, seconds, statistics.mean(kernel)


def data_rows(path: Path) -> list[str]:
    """Header and data rows of a pcnsim CSV, without the '#' metadata lines."""
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]


def row_hashes(result, out: Path) -> dict[str, str]:
    hashes = {name: hashlib.sha256("\n".join(data_rows(out / name)).encode()).hexdigest()
              for name in result.files}
    runs = "\n".join(f"{label},{i},{o.seed_used},{o.tau},{o.failure_kind},{o.failing_edge}"
                     for label, _k, outs in result.groups for i, o in enumerate(outs))
    hashes["outcomes"] = hashlib.sha256(runs.encode()).hexdigest()
    return hashes


class Checks:
    """Operations attempted and failed, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.messages: list[str] = []

    def campaign(self, wl, result) -> None:
        self.attempted += len(result.outcomes) + result.passes
        self.messages += wl.failures(result)

    def hashes(self, name: str, seed: int, result, workdir: Path) -> None:
        """Record the data-row hashes; at the default seed compare them."""
        hashes = row_hashes(result, workdir / "out")
        (workdir / "hashes.json").write_text(json.dumps(hashes, indent=1, sort_keys=True))
        if seed != DEFAULT_SEED:
            return
        self.attempted += 1
        expected = json.loads((HERE / "expected.json").read_text())["rows_sha256"]
        if expected.get(name) != hashes:
            self.messages.append(f"data-row hashes differ from perfbench/expected.json "
                                 f"(see {workdir / 'hashes.json'})")

    def cli_parity(self, pcnsim, wl, state, workdir: Path) -> None:
        lib_out, result = wl.parity_reference(state, workdir)
        if result is not None:
            self.campaign(wl, result)
        cli_out = workdir / "cli"
        cli_out.mkdir()
        for argv, files in wl.cli_recipes(cli_out):
            self.attempted += 1
            with contextlib.redirect_stdout(io.StringIO()):
                code = pcnsim.cli.main(argv)
            bad = [f for f in files if code != 0 or not (cli_out / f).is_file()
                   or data_rows(cli_out / f) != data_rows(lib_out / f)]
            if bad:
                self.messages.append(f"pcnsim {argv[0]} exited {code}; rows differ in {bad}")

    @property
    def failed(self) -> int:
        return len(self.messages)


def run_untraced(pcnsim, wl, seconds: float, workdir: Path, checks: Checks) -> dict:
    """End-to-end metrics: medians over repetitions, each scaled to the reference speed."""
    imports = [import_seconds() for _ in range(IMPORT_REPS)]
    setups = []
    for _ in range(SETUP_REPS):
        state, setup_s, kernel_s = timed(wl.setup)
        setups.append(reference.scaled(setup_s, kernel_s))
    walls, raws, kernels, durations, rates = [], [], [], [], []
    begin = time.perf_counter()
    # repeat while the next repetition, at the median pace so far, still fits
    while not walls or time.perf_counter() - begin + statistics.median(walls) <= seconds:
        seed = wl.seed + len(walls) * REP_SEED_STRIDE
        start = time.perf_counter()
        result, campaign_s, kernel_s = timed(wl.campaign, state, workdir / "out", seed)
        walls.append(time.perf_counter() - start)
        raws.append(campaign_s)
        kernels.append(kernel_s)
        durations.append(reference.scaled(campaign_s, kernel_s))
        rates.append(result.rounds / durations[-1])
        checks.campaign(wl, result)
        if len(walls) == 1:
            checks.hashes(wl.name, wl.seed, result, workdir)
    q1, median, q3 = statistics.quantiles(durations, n=4) if len(durations) > 1 else durations * 3
    print(f"{wl.name}: {len(durations)} campaign repetitions; scaled median {median:.4f} s, "
          f"quartiles {q1:.4f} {q3:.4f} s; unscaled median {statistics.median(raws):.4f} s; reference "
          f"kernel median {statistics.median(kernels) * 1e3:.2f} ms "
          f"(nominal {reference.NOMINAL_S * 1e3:g} ms)")
    return {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "campaign_s": statistics.median(durations),
        "rounds_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(pcnsim, wl, workdir: Path, checks: Checks) -> dict:
    tracer = spans.Tracer()
    with spans.installed(tracer, pcnsim), tracer.root("setup") as setup_root:
        state = wl.setup()
    result, untraced_s, _kernel_s = timed(wl.campaign, state, workdir / "out", wl.seed)
    checks.campaign(wl, result)
    gc.collect()
    tracer.gc_collections, tracer.gc_pause_s = 0, 0.0
    with spans.installed(tracer, pcnsim), tracer.root("campaign") as campaign_root:
        result = wl.campaign(state, workdir / "out", wl.seed)
    checks.campaign(wl, result)
    checks.hashes(wl.name, wl.seed, result, workdir)
    checks.cli_parity(pcnsim, wl, state, workdir)
    metrics = spans.per_layer(tracer, setup_root, campaign_root,
                              sum(o.censored for o in result.outcomes), untraced_s)
    layered = sum(metrics[f"layer.{layer}.self_s"] for layer in spans.LAYERS)
    residual = layered + metrics["trace.root_self_s"] - metrics["trace.campaign_s"]
    checks.attempted += 1
    if abs(residual) > 1e-6:
        checks.messages.append(f"layer self times miss the traced campaign by {residual} s")
    origin = tracer.spans[0][spans.START]
    with open(workdir / "trace.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed, "metrics": metrics,
                   "self_s_by_span": {name: row["self_s"] for name, row in
                                      spans.by_name(tracer.spans, campaign_root).items()},
                   "span_fields": ["name", "parent", "op", "start_s", "end_s", "count"],
                   "spans": [[s[0], s[1], s[2], s[3] - origin, s[4] - origin, s[5]]
                             for s in tracer.spans]}, fh)
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    pcnsim = load_pcnsim()
    workdir = ROOT / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    wl = WORKLOADS[args.workload](pcnsim, args.seed, workdir)
    wl.make_inputs()
    checks = Checks()
    if args.trace:
        values, wanted = run_traced(pcnsim, wl, workdir, checks), spec["per_layer"]
    else:
        values = run_untraced(pcnsim, wl, args.seconds, workdir, checks)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} ops_attempted = {checks.attempted} count")
    print(f"{args.workload} ops_failed = {checks.failed} count")
    for msg in checks.messages[:20]:
        print(f"{args.workload} check failed: {msg}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
