"""One workload in one fresh process: set up, run ops for a fixed time, report.

run.py starts this file once per set-up sample and once for the timed run;
it prints a single JSON line on exit.  Every op is a list of in-process
``satset.cli.main(argv)`` calls with stdout captured; only those calls are
timed, and each output is checked before the next op starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_REFERENCES = 5      # reference passes timed right after set-up


def run_command(argv: list[str]) -> tuple[float, object, str, str | None]:
    """(seconds, exit code, stdout, traceback or None) of one CLI call."""
    import satset.cli
    out, err = io.StringIO(), io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = satset.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc, tb = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
    if tb is None and "Traceback" in err.getvalue():
        tb = err.getvalue()
    return elapsed, rc, out.getvalue(), tb


def run_op(op: list[wl.Command]) -> tuple[float, list, list[str], str | None]:
    total, rcs, outs = 0.0, [], []
    for cmd in op:
        elapsed, rc, out, tb = run_command(cmd.argv)
        total += elapsed
        rcs.append(rc)
        outs.append(out)
        if tb is not None:
            return total, rcs, outs, "traceback: " + tb.strip().splitlines()[-1]
    return total, rcs, outs, None


def check_op(op, rcs, outs, rows, expected_digest: str | None) -> str | None:
    for cmd, rc, out in zip(op, rcs, outs):
        problem = wl.check_command(cmd, rc, out, rows)
        if problem:
            return f"{cmd.argv[0]}: {problem}"
    if expected_digest is not None and wl.op_digest(outs) != expected_digest:
        return "stdout sha256 differs from the one recorded for the default seed"
    return None


def plane_rows(workload: str, inputs: Path | None):
    """The rows the recount runs over: the canonical plane, or the file F."""
    q = wl.SETUP_ORDER[workload]
    if q is None:
        return wl.read_plane_rows(inputs / "plane.txt")
    from satset.plane import canonical_plane
    return canonical_plane(q).line_points


def expected_digests(workload: str, seed: int) -> list[str] | None:
    if seed != wl.DEFAULT_SEED:
        return None
    recorded = json.loads((HERE / "expected_digests.json").read_text())
    return recorded[workload]


def setup(workload: str) -> None:
    """What a user pays before the first command: import, then the plane."""
    import satset.cli  # noqa: F401
    from satset.plane import canonical_plane
    q = wl.SETUP_ORDER[workload]
    if q is not None:
        canonical_plane(q)


def checked_op(op, rows, digest: str | None):
    elapsed, rcs, outs, problem = run_op(op)
    if problem is None:
        problem = check_op(op, rcs, outs, rows, digest)
    return elapsed, rcs, outs, problem


def timed_run(workload, ops, rows, digests, seconds: float) -> dict:
    """Ops for ``seconds``, with the host-speed reference before each op
    and after the last."""
    passes = wl.REFERENCE_PASSES[workload]
    times, problems, refs = [], [], [hostspeed.reference_s(passes)]
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        i = len(times) % len(ops)
        elapsed, _, _, problem = checked_op(ops[i], rows, digests[i] if digests else None)
        times.append(elapsed)
        problems.append(problem)
        refs.append(hostspeed.reference_s(passes))
    return {"times": times, "problems": problems, "refs": refs}


def traced_run(tracer, workload, ops, rows, digests, seconds: float) -> dict:
    """Each op untraced and then traced, in whole passes over the trace ops."""
    ops = ops[:wl.TRACE_OPS[workload]]
    plain, traced, problems = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        for k, op in enumerate(ops):
            t_plain, rcs, outs, problem = checked_op(op, rows, digests[k] if digests else None)
            tracer.install()
            try:
                with tracer.span("op"):
                    t_traced, rcs_t, outs_t, problem_t = run_op(op)
            finally:
                tracer.uninstall()
            problem = problem or problem_t
            if problem is None and (rcs_t != rcs or wl.op_digest(outs_t) != wl.op_digest(outs)):
                problem = "traced and untraced stdout digests differ"
            plain.append(t_plain)
            traced.append(t_traced)
            problems.append(problem)
        if time.perf_counter() >= deadline:
            break
    return {"times": plain, "traced_times": traced, "problems": problems}


def layer_metrics(tracer, workload: str, inputs: Path | None, run: dict) -> dict:
    """{metric: {"value", "unit"}}; set-up functions count per set-up, the rest per op."""
    import tracing
    arrays = tracer.arrays()
    totals = tracing.summarize(tracer.names, **arrays)
    n_ops = len(run["traced_times"])
    metrics = {}
    for name, phase in tracing.LAYER_FUNCTIONS:
        per = 1 if phase == "setup" else n_ops
        calls, secs = totals.get((phase, name), (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls / per, "unit": f"calls/{phase}"}
        metrics[f"{name}.self_s"] = {"value": secs / per, "unit": f"s/{phase}"}
    metrics["saturation.verify_passes_per_op"] = metrics["saturation.unsaturated.calls"]
    metrics["hypergraph.pair_passes_per_op"] = \
        metrics["hypergraph.pairwise_intersection_sizes.calls"]
    if inputs is None:
        from satset.plane import canonical_plane
        plane = canonical_plane(wl.SETUP_ORDER[workload])
    else:
        from satset.plane import load_plane
        plane = load_plane(inputs / "plane.txt")
    metrics["plane.incidence_mb"] = {
        "value": (plane.line_points.nbytes + plane.point_lines.nbytes) / 2**20,
        "unit": "MB-computed"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(run["traced_times"]) / statistics.median(run["times"]) - 1,
        "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when run.py started this process")
    ap.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    ap.add_argument("--inputs", type=Path)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.span("setup"):
            setup(args.workload)
        tracer.uninstall()
    else:
        setup(args.workload)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "setup_ref_s": hostspeed.reference_s(SETUP_REFERENCES)}
    if args.mode != "setup":
        import satset.cli
        root = Path(satset.cli.__file__).resolve().parents[2]
        if root != Path.cwd().resolve():
            raise SystemExit(f"satset imported from {root}, not from the checkout")
        rows = plane_rows(args.workload, args.inputs)
        ops = wl.op_list(args.workload, args.seed, args.inputs, rows)
        if args.mode == "timed":
            run = timed_run(args.workload, ops, rows,
                            expected_digests(args.workload, args.seed), args.seconds)
        else:
            run = traced_run(tracer, args.workload, ops, rows,
                             expected_digests(args.workload, args.seed), args.seconds)
            result["layers"] = layer_metrics(tracer, args.workload, args.inputs, run)
            if args.trace_file is not None:
                tracer.save(args.trace_file)
        result.update(run)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
