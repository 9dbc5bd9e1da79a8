"""Benchmark entry point: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each CLI run of the workload is a fresh `python3` process (perfbench/child.py)
that imports fqcover from ./src.  Runs repeat until --seconds have passed.
Every run goes through the correctness gate in workloads.py; a run that
fails it counts in `failed`.

--trace 0 measures the end-to-end metrics, each the median over the CLI
runs.  Before and after each CLI run, the fixed job perfbench/reference.py
is timed, one copy per CLI worker side by side, and the run's times are
scaled by REFERENCE_S over the mean of those two job times: they read as
seconds on a machine where the job takes REFERENCE_S.  The machine is shared, and its speed
drifts by 20-40% within minutes; the scaling takes that drift out.
  wall_s       process start to exit of the CLI run
  setup_s      import of fqcover plus cold construction of the field, which
               cli.main then finds in the harness cache
  sets_per_s   sets checked (planned verdicts, or point sets) per second of
               cli.main
  peak_rss_mb  peak resident memory of the CLI process or of its largest
               pool worker (not scaled)

--trace 1 alternates untraced and traced runs at --workers 1 and measures
the per-layer metrics of workloads.PER_LAYER from the traced run with the
median run time (unscaled).  Spans are written to .perfbench-out/.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics that BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from spans import SpanTree
from workloads import PER_LAYER, WORKLOADS, gate, load_digests

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
HERE = os.path.join(ROOT, "perfbench")
DEADLINE_S = 170  # a run must end within 180 s
# Median time of perfbench/reference.py on the machine the baseline was
# recorded on (2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 0.42


class RunFailed(Exception):
    pass


def spawn(args: list[str], timeout: float) -> tuple[float, str]:
    """Run a child python process; return its wall time and stdout.

    The child gets its own process group, so pool workers are killed with
    it on timeout.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RunFailed(f"child exited {proc.returncode}: {err.strip()[-500:]}")
    return wall, out


def reference_s(copies: int, timeout: float) -> float:
    """Wall time of `copies` copies of the reference job run side by side."""
    t0 = time.perf_counter()
    procs = [subprocess.Popen([sys.executable, os.path.join(HERE, "reference.py")],
                              cwd=ROOT, stdout=subprocess.DEVNULL)
             for _ in range(copies)]
    try:
        codes = [proc.wait(timeout) for proc in procs]
    except subprocess.TimeoutExpired:
        raise RunFailed("reference job timed out")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise RunFailed(f"reference job exited {codes}")
    return time.perf_counter() - t0


class Bench:
    def __init__(self, workload_name: str, seed: int, digests: dict | None = None):
        self.w = WORKLOADS[workload_name]
        self.seed = seed
        self.started = time.perf_counter()
        self.digests = digests or load_digests()
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return max(DEADLINE_S - (time.perf_counter() - self.started), 1)

    def cli_run(self, workers: int | None = None, trace_path: str | None = None):
        """One gated CLI run; returns (wall seconds, child result) or None."""
        self.attempted += 1
        args = [os.path.join(HERE, "child.py"), trace_path or "-",
                *self.w.argv(self.seed, workers)]
        try:
            wall, out = spawn(args, timeout=self.remaining())
            result = json.loads(out.strip().splitlines()[-1])
        except (RunFailed, ValueError, IndexError) as exc:
            self.failed += 1
            print(f"[perfbench] {self.w.name}: run failed: {exc}", file=sys.stderr)
            return None
        problems = gate(self.w, self.seed, result["exit_code"], result["report"],
                        self.digests)
        if problems:
            self.failed += 1
            print(f"[perfbench] {self.w.name} seed {self.seed}: " + "; ".join(problems),
                  file=sys.stderr)
        return wall, result

    def end_to_end(self, seconds: float) -> dict:
        samples = {"wall_s": [], "setup_s": [], "sets_per_s": [], "peak_rss_mb": []}
        t0 = time.perf_counter()
        before = reference_s(self.w.workers, self.remaining())
        while True:
            run = self.cli_run()
            after = reference_s(self.w.workers, self.remaining())
            if run is not None:
                wall, r = run
                scale = 2 * REFERENCE_S / (before + after)
                samples["wall_s"].append(wall * scale)
                samples["setup_s"].append((r["import_s"] + r["field_s"]) * scale)
                samples["sets_per_s"].append(self.w.sets_per_run() / (r["main_s"] * scale))
                samples["peak_rss_mb"].append(r["peak_rss_kb"] / 1024)
            if run is None or time.perf_counter() - t0 >= seconds:
                break
            before = after
        if not samples["wall_s"]:
            raise RunFailed("no run completed")
        return {name: statistics.median(values) for name, values in samples.items()}

    def per_layer(self, seconds: float) -> dict:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"spans-{self.w.name}.npz")
        untraced, traced = [], []
        t0 = time.perf_counter()
        while True:
            plain = self.cli_run(workers=1)
            run = self.cli_run(workers=1, trace_path=trace_path)
            if plain is None or run is None:
                break
            untraced.append(plain[1]["field_s"] + plain[1]["main_s"])
            try:
                tree = SpanTree(trace_path)
            except ValueError as exc:
                raise RunFailed(f"malformed trace: {exc}")
            traced.append(layer_metrics(tree, run[1]))
            if time.perf_counter() - t0 >= seconds:
                break
        if not traced:
            raise RunFailed("no traced run completed")
        # All metrics come from one traced run, the one with the median run
        # time, so its layer self times add up to its run time.
        traced.sort(key=lambda m: m["trace.run_s"])
        metrics = traced[(len(traced) - 1) // 2]
        metrics["trace_overhead_frac"] = (metrics["trace.run_s"]
                                          / statistics.median(untraced) - 1)
        return metrics


def layer_metrics(tree: SpanTree, result: dict) -> dict:
    """Per-layer metrics of one traced run (all but trace_overhead_frac)."""
    counts = result["counts"]
    generated = counts.get("harness.colex_subsets.yields", 0)
    verdicts = tree.calls("covering.cover_verdict")
    m = {
        "gf.make_field_s": tree.total_s("gf.make_field"),
        "gf.table_mb": result["table_bytes"] / 2 ** 20,
        "gf.add_arrays_s": tree.total_s("gf.Field.add_arrays"),
        "gf.add_arrays_calls": tree.calls("gf.Field.add_arrays"),
        "gf.mul_arrays_s": tree.total_s("gf.Field.mul_arrays"),
        "gf.mul_arrays_calls": tree.calls("gf.Field.mul_arrays"),
        "fourier.forward_s": tree.total_s("fourier.fourier_forward"),
        "fourier.forward_calls": tree.calls("fourier.fourier_forward"),
        "fourier.convolve_diff_s": tree.total_s("fourier.convolve_diff"),
        "incidence.nu_s": tree.total_s("incidence.nu"),
        "incidence.nu_pairs": counts.get("incidence.nu_pairs", 0),
        "incidence.line_counts_s": tree.total_s("incidence.line_counts_all"),
        "incidence.hyperplane_identity_s":
            tree.total_s("incidence.hyperplane_hat_identity_check"),
        "incidence.second_moment_s": tree.total_s("incidence.second_moment_check"),
        "covering.cover_verdict_s": tree.total_s("covering.cover_verdict"),
        "covering.cover_verdict_calls": verdicts,
        "covering.verdict_p50_us": tree.percentile_us("covering.cover_verdict", 50),
        "covering.verdict_p99_us": tree.percentile_us("covering.cover_verdict", 99),
        "covering.sumset_s": tree.total_s("covering.sumset"),
        "covering.product_set_s": tree.total_s("covering.product_set"),
        "covering.pairs": counts.get("covering.pairs", 0),
        "covering.covers_units_s": tree.total_s("covering.covers_units"),
        "covering.dot_product_set_s": tree.total_s("covering.dot_product_set"),
        "covering.dot_set_lower_bound_s": tree.total_s("covering.dot_set_lower_bound"),
        "harness.enumerate_s": tree.total_s("harness.colex_subsets"),
        "harness.subsets_generated": generated,
        "harness.enum_useful_ratio": verdicts / generated if generated else 0.0,
        "harness.sample_s": tree.total_s("harness.stream", "harness.sample_indices"),
        "harness.serialize_s": tree.total_s("harness.canonical_json"),
        "harness.report_bytes": len(result["report"].encode()),
        "cli.import_s": result["import_s"],
        "trace.run_s": tree.run_ns / 1e9,
        "trace.overhead_s": tree.overhead_ns / 1e9,
        "trace.spans": tree.spans,
    }
    for layer, ns in tree.layer_self_ns.items():
        m[f"{layer}.self_s"] = ns / 1e9
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Bench, dict]:
    """Run one workload; return the bench (with its run counts) and every
    metric of the mode, by name."""
    bench = Bench(workload, seed)
    # Compile the sources once, untimed: users do not pay for it on every run.
    spawn(["-c", "import fqcover.cli"], timeout=60)
    return bench, bench.per_layer(seconds) if trace else bench.end_to_end(seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fqcover", "cli.py")):
        print(f"[perfbench] no fqcover sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    try:
        bench, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"[perfbench] {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
