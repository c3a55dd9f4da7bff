"""satset benchmark: four seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload random --seed 1701 --seconds 25 --trace 0

Each workload runs in fresh child processes, one after another, as a
closed loop with one caller: set-up is sampled five times, then one child
runs the workload's ops for --seconds.  Time metrics are scaled to a
nominal host speed (hostspeed.py).  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics.  With --trace 1
the metrics are the per-layer ones of a traced run instead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170             # every child is killed past this, counted from start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s",
             "peak_rss_mb": "MB", "ok_frac": "ratio"}


def provenance(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(root)}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
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
    return None


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond it) of a nearest-rank percentile; p50 is the median."""
    ordered = sorted(times)
    rank = math.ceil(pct / 100 * len(ordered))
    value = statistics.median(ordered) if pct == 50 else ordered[rank - 1]
    return value, len(ordered) - rank


class Runner:
    def __init__(self, root: Path, seed: int, seconds: float, deadline: float):
        self.root, self.seed, self.seconds, self.deadline = root, seed, seconds, deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])
        for var in THREAD_VARS:
            self.env[var] = "1"

    def child(self, workload: str, mode: str, inputs: Path | None,
              trace_file: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--seconds", str(self.seconds), "--mode", mode]
        if inputs is not None:
            cmd += ["--inputs", str(inputs)]
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        cmd += ["--spawned-at", repr(time.monotonic())]
        timeout = None if math.isinf(self.deadline) else max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} {mode} worker exited with {proc.returncode}")
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def make_inputs(workload: str, seed: int, where: Path) -> Path | None:
    if workload != "verify-file":
        return None
    from satset.plane import canonical_plane
    wl.make_verify_inputs(canonical_plane(wl.VERIFY_Q).line_points, seed, where)
    return where


def run_workload(runner: Runner, workload: str, trace: bool, out_dir: Path) -> dict:
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        inputs = make_inputs(workload, runner.seed, Path(tmp))
        if trace:
            trace_file = out_dir / f"trace-{workload}-seed{runner.seed}.npz"
            run = runner.child(workload, "traced", inputs, trace_file)
        else:
            setups = [runner.child(workload, "setup", inputs)
                      for _ in range(SETUP_SAMPLES - 1)]
            run = runner.child(workload, "timed", inputs)
            setups.append(run)
    times, problems = run["times"], run["problems"]
    failed = sum(p is not None for p in problems)
    report = {
        "workload": workload, "seed": runner.seed, "seconds": runner.seconds,
        "trace": int(trace), "ops": len(times), "failed": failed,
        "fail_frac": failed / len(times),
        "problems": sorted({p for p in problems if p}),
    }
    if trace:
        report["metrics"] = run["layers"]
        report["trace_file"] = str(trace_file.relative_to(runner.root))
    else:
        scaled = hostspeed.scaled_op_times(times, run["refs"])
        pct = wl.TAIL_PERCENTILE[workload]
        tail_s, beyond = tail(scaled, pct)
        report.update({
            "tail_percentile": pct, "tail_samples_beyond": beyond,
            "setup_wall_samples_s": [s["setup_s"] for s in setups],
            "wall_setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_op_s_p50": statistics.median(times),
            "host_speed": hostspeed.speed_factor(run["refs"]),
        })
        values = {"setup_s": statistics.median(hostspeed.scale(s["setup_s"], s["setup_ref_s"])
                                               for s in setups),
                  "op_s_p50": statistics.median(scaled), "op_s_tail": tail_s,
                  "peak_rss_mb": run["peak_rss_kb"] / 1024,
                  "ok_frac": 1 - failed / len(times)}
        report["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return report


def print_report(report: dict) -> None:
    line = (f"workload={report['workload']} seed={report['seed']} "
            f"ops={report['ops']} failed={report['failed']} "
            f"fail_frac={report['fail_frac']:.4g}")
    if not report["trace"]:
        line += (f" tail=p{report['tail_percentile']:g} "
                 f"({report['tail_samples_beyond']} ops beyond) "
                 f"host_speed={report['host_speed']:.3f} "
                 f"wall_op_s_p50={report['wall_op_s_p50']:.4g}")
    print(line)
    for name, m in report["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd().resolve()
    if not (root / "src" / "satset" / "cli.py").is_file():
        print("error: run from the root of a satset checkout (src/satset not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    limit = math.inf if args.workload == "all" else TIME_LIMIT_S
    runner = Runner(root, args.seed, args.seconds, started + limit)

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(runner, w, bool(args.trace), out_dir) for w in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    print(json.dumps({"provenance": provenance(root),
                      "runs": [{k: v for k, v in r.items() if k != "metrics"}
                               for r in reports]}))
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["ops"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
