"""One CLI run of one workload, in a fresh process.

Usage: python3 perfbench/child.py <trace file or -> <cli args...>

Times the import of fqcover and the cold construction of GF(p^n) (the
set-up), then calls `fqcover.cli.main` with the CLI arguments, which finds
the field in the harness cache.  With a trace file, every layer is traced
and the spans are written to that file when the run ends.  Prints one JSON line: the CLI exit code, the report it wrote
to stdout, timings and peak memory.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def peak_rss_kb() -> int:
    """Peak resident memory of this process or of its largest pool worker.

    For this process, VmHWM, which starts afresh with the new program; its
    ru_maxrss would also count the memory of the process that started it.
    """
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    trace_path, *cli_args = sys.argv[1:]
    p = int(cli_args[cli_args.index("--p") + 1])
    n = int(cli_args[cli_args.index("--n") + 1])

    t0 = time.perf_counter()
    import fqcover.cli
    import fqcover.harness
    result = {"import_s": time.perf_counter() - t0}
    if not os.path.abspath(fqcover.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fqcover was imported from {fqcover.__file__}, not from {SRC}")

    def run():
        t1 = time.perf_counter()
        fqcover.harness.get_field(p, n)
        t2 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = fqcover.cli.main(cli_args)
        result.update(field_s=t2 - t1, main_s=time.perf_counter() - t2)
        return code, out.getvalue()

    if trace_path == "-":
        code, report = run()
    else:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(fqcover)
        code, report = tracer.span("cli.run")(run)()
        tracer.save(trace_path)
        result["counts"] = dict(tracer.counts)
        # Bytes held by the tables of every field built (computed, not timed).
        result["table_bytes"] = sum(
            v.nbytes for f in fqcover.harness._FIELD_CACHE.values()
            for v in list(vars(f).values()) + list(f._coords_cache.values())
            if hasattr(v, "nbytes"))

    result.update(exit_code=code, report=report, peak_rss_kb=peak_rss_kb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
