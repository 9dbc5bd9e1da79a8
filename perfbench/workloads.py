"""Workloads, per-layer metrics and the correctness gate.

Each workload is one `fqcover` CLI command.  The roster is chosen so that
every layer (gf, fourier, incidence, covering, harness, cli) dominates at
least one workload, and so that each planned optimisation has a workload
that exercises it and one that bypasses it (see `why`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

POINT_CHECKS = ("cover", "remainder", "identities", "second_moment", "keylowerbound")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    p: int
    n: int
    d: int
    why: str
    sizes: tuple[int, int] | None = None
    samples: int | None = None
    mode: str | None = None
    workers: int = 1

    @property
    def q(self) -> int:
        return self.p ** self.n

    def argv(self, seed: int, workers: int | None = None) -> list[str]:
        args = [self.command, "--p", str(self.p), "--n", str(self.n), "--d", str(self.d)]
        if self.mode:
            args += ["--mode", self.mode]
        if self.sizes:
            args += ["--sizes", f"{self.sizes[0]}..{self.sizes[1]}"]
        if self.samples is not None:
            args += ["--samples", str(self.samples)]
        return args + ["--workers", str(workers or self.workers), "--seed", str(seed)]

    def expected_checked(self) -> dict[str, int]:
        """The `checked` count each report tally must carry.

        Computed from the workload's parameters, not from any report, so an
        `ok` report that checked less than planned fails the gate.
        """
        q, d = self.q, self.d
        if self.command == "cover-exhaustive":
            return {str(s): math.comb(q, s) for s in range(1, q + 1)
                    if s ** (2 * d) > q ** (d + 1)}
        lo, hi = self.sizes
        if self.command == "cover-sample":
            return {str(s): self.samples for s in range(lo, hi + 1)}
        return {c: (hi - lo + 1) * self.samples for c in POINT_CHECKS}

    def sets_per_run(self) -> int:
        """Sets checked by one CLI run: scalar sets given a verdict, or point sets."""
        if self.command == "geometry":
            return (self.sizes[1] - self.sizes[0] + 1) * self.samples
        return sum(self.expected_checked().values())


WORKLOADS = {w.name: w for w in (
    Workload(
        "exhaustive-q17", "cover-exhaustive", p=17, n=1, d=2, workers=2,
        why="~1.3e5 tiny verdicts on a prime field: per-call overhead in covering, "
            "colex enumeration and the process pool; no fourier or incidence, "
            "almost no field set-up"),
    Workload(
        "geometry-q9", "geometry", p=3, n=2, d=2, mode="sample", sizes=(28, 60),
        samples=5,
        why="all five point checks: nu, line counts, hyperplane sums, transforms "
            "and dot-product sets, every addition on the odd-extension digit path"),
    Workload(
        "sample-q4096", "cover-sample", p=2, n=12, d=2, sizes=(513, 516), samples=5,
        why="a few huge verdicts above the threshold on 16M-pair arrays, at the "
            "largest q with a full multiplication table: bulk speed and memory"),
    Workload(
        "subthreshold-q2e18", "cover-sample", p=2, n=18, d=2, sizes=(20, 24), samples=4,
        why="large field, cheap below-threshold verdicts: set-up is GF(2^18) "
            "construction, the run is the O(q) covers_units scan"),
)}

# Every geometry size must clear the point threshold |E|^2 > q^(d+1), so the
# cover check is counted for every sampled set.
assert all(w.sizes[0] ** 2 > w.q ** (w.d + 1)
           for w in WORKLOADS.values() if w.command == "geometry")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    unit: str
    better: str
    moves: str              # the end-to-end metric and workload it should move
    computed: bool = False  # derived from sizes and array shapes, not timed


_V = "sets_per_s on geometry-q9"
_E = "sets_per_s on exhaustive-q17"
_S = "sets_per_s and peak_rss_mb on sample-q4096"

PER_LAYER = {
    "gf.make_field_s": LayerMetric(
        "s", "lower", "setup_s on subthreshold-q2e18 and sample-q4096; "
                      "predicted unchanged on exhaustive-q17"),
    "gf.table_mb": LayerMetric(
        "MB", "lower", "peak_rss_mb on sample-q4096 and subthreshold-q2e18", computed=True),
    "gf.add_arrays_s": LayerMetric("s", "lower", _V),
    "gf.add_arrays_calls": LayerMetric("count", "lower", _V),
    "gf.mul_arrays_s": LayerMetric("s", "lower", f"{_V} and exhaustive-q17"),
    "gf.mul_arrays_calls": LayerMetric("count", "lower", f"{_V} and exhaustive-q17"),
    "gf.self_s": LayerMetric("s", "lower", "setup_s and sets_per_s"),
    "fourier.forward_s": LayerMetric("s", "lower", _V),
    "fourier.forward_calls": LayerMetric("count", "lower", _V),
    "fourier.convolve_diff_s": LayerMetric("s", "lower", _V),
    "fourier.self_s": LayerMetric("s", "lower", _V),
    "incidence.nu_s": LayerMetric("s", "lower", _V),
    "incidence.nu_pairs": LayerMetric("count", "lower", _V, computed=True),
    "incidence.line_counts_s": LayerMetric("s", "lower", _V),
    "incidence.hyperplane_identity_s": LayerMetric("s", "lower", _V),
    "incidence.second_moment_s": LayerMetric("s", "lower", _V),
    "incidence.self_s": LayerMetric("s", "lower", _V),
    "covering.cover_verdict_s": LayerMetric("s", "lower", _E),
    "covering.cover_verdict_calls": LayerMetric("count", "lower", _E),
    "covering.verdict_p50_us": LayerMetric("us", "lower", _E),
    "covering.verdict_p99_us": LayerMetric("us", "lower", _E),
    "covering.sumset_s": LayerMetric("s", "lower", _S),
    "covering.product_set_s": LayerMetric("s", "lower", _S),
    "covering.pairs": LayerMetric("count", "lower", _S, computed=True),
    "covering.covers_units_s": LayerMetric("s", "lower", "sets_per_s on subthreshold-q2e18"),
    "covering.dot_product_set_s": LayerMetric("s", "lower", _V),
    "covering.dot_set_lower_bound_s": LayerMetric("s", "lower", _V),
    "covering.self_s": LayerMetric("s", "lower", "sets_per_s"),
    "harness.enumerate_s": LayerMetric("s", "lower", _E),
    "harness.subsets_generated": LayerMetric("count", "lower", _E),
    "harness.enum_useful_ratio": LayerMetric("ratio", "higher", _E),
    "harness.sample_s": LayerMetric(
        "s", "lower", "sets_per_s on subthreshold-q2e18 and geometry-q9"),
    "harness.serialize_s": LayerMetric("s", "lower", "wall_s on all workloads"),
    "harness.report_bytes": LayerMetric("bytes", "lower", "wall_s on all workloads"),
    "harness.self_s": LayerMetric("s", "lower", "sets_per_s"),
    "cli.import_s": LayerMetric("s", "lower", "setup_s on all workloads"),
    "cli.self_s": LayerMetric("s", "lower", "wall_s on all workloads"),
    "trace.run_s": LayerMetric(
        "s", "lower", "none: the six *.self_s metrics and trace.overhead_s add up to it"),
    "trace.overhead_s": LayerMetric("s", "lower", "none: the wrappers' own cost"),
    "trace.spans": LayerMetric("count", "lower", "trace_overhead_frac"),
    "trace_overhead_frac": LayerMetric("ratio", "lower", "none: cost of tracing itself"),
}


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def report_digest(report_text: str) -> str:
    return hashlib.sha256(report_text.encode()).hexdigest()


def gate(workload: Workload, seed: int, exit_code: int, report_text: str,
         digests: dict) -> list[str]:
    """Reasons one CLI run fails the gate; empty when it passes.

    The run must exit 0 with status ok, its tallies must carry exactly the
    planned checked counts, and at a seed with a recorded digest the report
    must hash to it.  Digests are recorded at --workers 1, so a run at any
    other worker count also checks worker-count independence.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads(report_text)
    except ValueError:
        return problems + ["report is not JSON"]
    if report.get("status") != "ok":
        problems.append(f"status {report.get('status')!r}")
    tallies = report.get("tallies")
    checked = ({k: v.get("checked") for k, v in tallies.items()}
               if isinstance(tallies, dict) else tallies)
    if checked != workload.expected_checked():
        problems.append(f"checked counts {checked} differ from the plan "
                        f"{workload.expected_checked()}")
    recorded = digests["digests"].get(workload.name, {}).get(str(seed))
    if recorded is not None and report_digest(report_text) != recorded:
        reason = "report digest differs from the recorded one"
        if report.get("schema") != digests["report_schema"]:
            reason += (f" (report schema {report.get('schema')}, recorded "
                       f"{digests['report_schema']}: re-record the digests)")
        problems.append(reason)
    return problems
