"""Repository benchmark: run one workload, check every count, print metrics.

    python3 perfbench/run.py --workload http-thread --seed 0 --seconds 18 --trace 0

Run from the root of a checkout (``src/repro`` must exist). The inputs are
made from ``--seed`` (see ``inputs.py``) and every op is checked against
the oracle counts in ``expected.json``. ``--trace 0`` prints the
end-to-end metrics: the program is set up ``SETUPS`` times (``setup_s`` is
their median) and the last set-up is measured for ``--seconds``.
``--trace 1`` measures once untraced and once with the layer wrappers of
``tracing.py`` installed, and prints the per-layer metrics, the tracing
overhead and the mechanism checks. ``--smoke`` runs one set-up and one
pass. The last stdout line is the JSON result; the line before it is the
run record, also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# BLAS threads must not compete for the cores; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups per end-to-end run; setup_s is their median
# Bounded end-to-end metrics. In a closed loop throughput is the reciprocal
# of mean latency; the percentiles, order statistics of one op class each,
# drift more from run to run on a shared machine, so they are reported in
# the run record and, from the untraced half, as per-layer metrics.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _throughput(loop: dict) -> float:
    """Σ over connections of succeeded ops in counted passes per second."""
    total = 0.0
    for c, end in enumerate(loop["ends"]):
        ok = sum(1 for o in loop["ops"] if o["conn"] == c and o["counted"] and o["ok"])
        total += ok / ((end - loop["t_start"]) / 1e9)
    return total


def measure(runner, args) -> tuple[dict, dict]:
    """One closed-loop measurement on an already set-up runner."""
    from runners import closed_loop

    cpu0 = runner.cpu()
    loop = closed_loop(runner, runner.w.mix, runner.w.connections, args.seed, args.seconds,
                       passes=1 if args.smoke else None)
    cpu1 = runner.cpu()
    lat = [(o["t1"] - o["t0"]) / 1e6 for o in loop["ops"] if o["counted"] and o["ok"]]
    metrics = {
        "throughput_ops_s": _throughput(loop),
        "latency_p50_ms": _quantile(lat, 0.5) if lat else 0.0,
        "latency_p90_ms": _quantile(lat, 0.9) if lat else 0.0,
        "cpu_ms_per_op": 1e3 * (cpu1 - cpu0) / max(1, len(loop["ops"])),
        "peak_rss_mb": runner.rss(),
    }
    return metrics, loop


def _calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right
    now, recorded next to the metrics to explain drift between runs."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def _fresh_interpreter_ms(code: list[str], env: dict, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def mechanism_checks(workload: str, layer: dict, per_op: dict, loop: dict, heavy: set) -> dict:
    """Confirm the traced run reached the layers the workload exists for."""
    checks = {}
    compiles = layer["plan.compiles"]
    checks["plan.compiles>0 only on cli-oneshot"] = (
        compiles > 0 if workload == "cli-oneshot" else compiles == 0)
    if workload.startswith("http-"):
        checks["service.result_cache_hit_ratio>0"] = layer["service.result_cache_hit_ratio"] > 0
    if workload == "http-pool":
        heavy_ops = [o["op"] for o in loop["ops"]
                     if o["counted"] and o["kind"] in heavy and not o.get("coalesced")]
        checks["workerpool.calls>0 on every heavy op"] = bool(heavy_ops) and all(
            per_op.get(op, {}).get("workerpool.calls", 0) > 0 for op in heavy_ops)
    if workload == "http-thread":
        checks["workerpool.calls==0"] = layer["workerpool.calls"] == 0
    return checks


def run(args) -> dict:
    import runners
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    workdir = ROOT / ".perfbench" / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    warm: list[dict] = []
    out: dict = {"checks": {}}

    def launch(trace_file=None, setups=1):
        runner = runners.RUNNERS[w.runner](w, args.seed, workdir, expected)
        setup_s = []
        try:
            for i in range(setups):
                setup_s.append(runner.setup(warm, trace_file if i == setups - 1 else None))
                if i < setups - 1:
                    runner.stop()
            metrics, loop = measure(runner, args)
        finally:
            runner.stop()
        metrics["setup_s"] = statistics.median(setup_s)
        return runner, metrics, loop, setup_s

    if not args.trace:
        _, metrics, loop, setup_s = launch(setups=1 if args.smoke else SETUPS)
        out.update(metrics={k: metrics[k] for k in E2E_UNITS}, units=E2E_UNITS,
                   loops=[loop], setup_samples=setup_s,
                   latency_ms={k: metrics[k] for k in ("latency_p50_ms", "latency_p90_ms")})
    else:
        _, plain, plain_loop, _ = launch()
        runner, traced, loop, _ = launch(trace_file=workdir / "spans.json")
        kinds = [op.kind for op in w.mix]
        window = (loop["t_start"], loop["t_end"])
        layer, per_op = tracing.layer_metrics(runner.traces, loop["ops"], kinds, window)
        env = runners.program_env()
        interp = _fresh_interpreter_ms(["-c", "pass"], env)
        layer["cli.interpreter_ms"] = interp
        layer["cli.import_ms"] = _fresh_interpreter_ms(["-c", "import repro.cli"], env) - interp
        layer["latency_p50_ms"] = plain["latency_p50_ms"]
        layer["latency_p90_ms"] = plain["latency_p90_ms"]
        untraced, traced_thr = plain["throughput_ops_s"], traced["throughput_ops_s"]
        layer["trace.untraced_throughput_ops_s"] = untraced
        layer["trace.traced_throughput_ops_s"] = traced_thr
        layer["trace.overhead_pct"] = 100.0 * (1.0 - traced_thr / untraced) if untraced else 0.0
        heavy = {op.kind for op in w.mix if op.heavy}
        out["checks"] = mechanism_checks(args.workload, layer, per_op, loop, heavy)
        out.update(metrics=layer, units=tracing.UNITS, loops=[plain_loop, loop])
    ops = warm + [o for lp in out["loops"] for o in lp["ops"]]
    (workdir / "ops.json").write_text(json.dumps({"warm": warm, "loops": out["loops"]}))
    out["attempted"] = len(ops)
    out["failed"] = sum(1 for o in ops if not o["ok"])
    out["errors"] = sorted({o["error"] for o in ops if o.get("error")})[:10]
    return out


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one set-up and one pass")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like an error, so the runners stop what they started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import numpy

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": _git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "calibration_ms_start": _calibration_ms(),
    }
    out = run(args)
    record["calibration_ms_end"] = _calibration_ms()
    checks_ok = all(out["checks"].values())
    record.update(
        attempted=out["attempted"], succeeded=out["attempted"] - out["failed"],
        failed=out["failed"], errors=out["errors"], checks=out["checks"],
        setup_samples_s=out.get("setup_samples"), latency_ms=out.get("latency_ms"),
        metrics=out["metrics"],
        counted_ops=sum(1 for lp in out["loops"][-1:] for o in lp["ops"] if o["counted"]),
    )
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for name, ok in out["checks"].items():
        if not ok:
            print(f"mechanism check failed: {name}", file=sys.stderr)
    for err in out["errors"]:
        print(f"failed op: {err}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": out["failed"] == 0 and checks_ok,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
