"""Workload runners: set up the program, run one op, read its resources.

Each runner exposes ``setup(warm, trace_file)`` (seconds from launch to
ready, warm pass included), ``run_op(op, op_id)`` (an op record; never
raises), ``cpu()`` / ``rss()`` (CPU seconds so far and summed peak RSS of
the program's processes) and ``stop()``. :func:`closed_loop` drives them.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import tracing
from workloads import Op, Workload

_now = time.monotonic_ns
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLK_TCK = os.sysconf("SC_CLK_TCK")
OP_TIMEOUT_S = 60  # an op slower than this is failed, so a run still ends


def program_env() -> dict:
    """Environment of every program process: run.py has already pinned the
    BLAS thread counts to 1 in ``os.environ``; add the source path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _op_record(t0: int, ok: bool, error: str | None = None, **extra) -> dict:
    rec = {"t0": t0, "t1": _now(), "ok": ok}
    if error:
        rec["error"] = error[:300]
    rec.update(extra)
    return rec


# ----------------------------------------------------------------------
# /proc helpers (Linux)
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()  # fields from "state" on


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            f = _stat_fields(int(entry))
            if f is not None:
                children.setdefault(int(f[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def cpu_seconds(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        f = _stat_fields(pid)
        if f is not None:
            total += int(f[11]) + int(f[12])  # utime + stime
    return total / CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024


def group_members(pgid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            f = _stat_fields(int(entry))
            if f is not None and int(f[2]) == pgid and f[0] != "Z":
                out.append(int(entry))
    return out


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
def closed_loop(runner, mix: tuple[Op, ...], connections: int, seed: int,
                seconds: float, passes: int | None = None) -> dict:
    """Each connection sends whole passes over ``mix`` (shuffled by the
    seed), one request after the previous reply. A connection's passes
    count until one ends after ``seconds`` (or after ``passes``); it then
    keeps sending uncounted passes until every connection has finished
    counting, so the load stays the same for the whole measurement."""
    ids = itertools.count()
    ops: list[dict] = []
    done = [False] * connections
    ends = [0] * connections
    t_start = _now()
    deadline = t_start + int(seconds * 1e9)

    def loop(c: int) -> None:
        rng = random.Random(seed * 1000 + c)
        npass = 0
        while not all(done):
            order = list(mix)
            rng.shuffle(order)
            counted = not done[c]
            for op in order:
                op_id = next(ids)
                rec = runner.run_op(op, op_id)
                rec.update(op=op_id, kind=op.kind, conn=c, counted=counted)
                ops.append(rec)
            npass += 1
            if counted and (npass == passes or (passes is None and _now() >= deadline)):
                ends[c] = _now()
                done[c] = True

    threads = [threading.Thread(target=loop, args=(c,), name=f"conn-{c}", daemon=True)
               for c in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {"ops": ops, "t_start": t_start, "ends": ends, "t_end": _now()}


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
class _Base:
    def __init__(self, workload: Workload, seed: int, workdir: Path, expected: dict):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.traces: list[dict] = []
        self._warm_ids = itertools.count(-1, -1)

    def write_inputs(self) -> dict:
        info = inputs.write_inputs(self.workdir / "inputs", self.seed)
        for g, meta in info.items():
            want = self.expected[g]["base_fingerprint"]
            if meta["base_fingerprint"] != want:
                raise SystemExit(f"input graph {g} changed (fingerprint {meta['base_fingerprint']}"
                                 f" != {want}); regenerate expected.json with oracle.py")
        return info

    def want(self, op: Op) -> int:
        return self.expected[op.graph]["counts"][op.pattern]

    def warm_pass(self, warm: list[dict], ops: tuple[Op, ...] | None = None) -> None:
        for op in self.w.mix if ops is None else ops:
            op_id = next(self._warm_ids)
            rec = self.run_op(op, op_id)
            rec.update(op=op_id, kind=op.kind, conn=-1, counted=False)
            warm.append(rec)


class InprocRunner(_Base):
    """``Runtime.count`` in this process; plans compiled during setup."""

    def __init__(self, *args):
        super().__init__(*args)
        self.recorder: tracing.Recorder | None = None
        self._uninstall = None

    def setup(self, warm: list[dict], trace_file: Path | None = None) -> float:
        t0 = time.perf_counter()
        if trace_file is not None and self.recorder is None:
            self.recorder = tracing.Recorder("inproc")
            self._uninstall = tracing.install(self.recorder)
            self.trace_file = trace_file
        import repro.graph.io as gio
        import repro.patterns.dsl as dsl
        from repro.core.engine import EngineConfig
        from repro.runtime import Runtime

        info = self.write_inputs()
        used = {op.graph for op in self.w.mix}
        self.graphs = {g: gio.load_graph(info[g]["path"]) for g in sorted(used)}
        self.patterns = {op.pattern: dsl.parse_pattern(op.pattern) for op in self.w.mix}
        self.runtime = Runtime()
        for pattern in self.patterns.values():
            self.runtime.plan_for(pattern, EngineConfig())
        self.warm_pass(warm)
        return time.perf_counter() - t0

    def run_op(self, op: Op, op_id: int) -> dict:
        tok = tracing.OP.set(op_id) if self.recorder is not None else None
        t0 = _now()
        try:
            res = self.runtime.count(self.graphs[op.graph], self.patterns[op.pattern],
                                     engine=op.engine)
            ok = res.count == self.want(op)
            return _op_record(t0, ok, None if ok else f"count {res.count} != {self.want(op)}")
        except Exception as exc:  # a failed op is recorded, not raised
            return _op_record(t0, False, f"{type(exc).__name__}: {exc}")
        finally:
            if tok is not None:
                tracing.OP.reset(tok)

    def cpu(self) -> float:
        return time.process_time()

    def rss(self) -> float:
        return peak_rss_mb([os.getpid()])

    def stop(self) -> None:
        # drop this set-up's runtime and graphs now, so the next set-up's
        # peak RSS does not depend on when the collector would have run
        self.runtime = self.graphs = self.patterns = None
        gc.collect()
        if self.recorder is not None:
            self._uninstall()
            self.recorder.dump(self.trace_file)
            self.traces.append({"spans": self.recorder.spans, "events": self.recorder.events})
            self.recorder = None


class HttpRunner(_Base):
    """``serve`` subprocess over the three graph files; closed-loop HTTP."""

    def __init__(self, *args):
        super().__init__(*args)
        self.proc: subprocess.Popen | None = None
        self.trace_file: Path | None = None

    def setup(self, warm: list[dict], trace_file: Path | None = None) -> float:
        t0 = time.perf_counter()
        info = self.write_inputs()
        self.graph_names = {g: meta["path"].stem for g, meta in info.items()}
        self.trace_file = trace_file
        argv = [sys.executable, str(ROOT / "perfbench" / "server.py")]
        if trace_file is not None:
            argv += ["--spans", str(trace_file)]
        argv += ["serve", "--port", "0"]
        for g in sorted(info):
            argv += ["--graph", str(info[g]["path"])]
        argv += list(self.w.serve_args)
        out = self.workdir / "server.out"
        with open(out, "wb") as fo, open(self.workdir / "server.err", "wb") as fe:
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(), stdout=fo,
                                         stderr=fe, stdin=subprocess.DEVNULL,
                                         start_new_session=True)
        self.port = self._wait_port(out)
        self._wait_healthy()
        self.warm_pass(warm)
        return time.perf_counter() - t0

    def _wait_port(self, out: Path, timeout: float = 60.0) -> int:
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            for line in out.read_text(errors="replace").splitlines():
                if line.startswith("serving :"):
                    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        err = (self.workdir / "server.err").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"server did not start (exit {self.proc.poll()}): {err}")

    def _wait_healthy(self, timeout: float = 30.0) -> None:
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/v1/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never became healthy")

    def run_op(self, op: Op, op_id: int) -> dict:
        body = {"v": 1, "graph": self.graph_names[op.graph], "pattern": op.pattern,
                "engine": op.engine, "use_cache": op.use_cache}
        if self.trace_file is not None:
            body["bench_op"] = op_id
        data = json.dumps(body).encode()
        t0 = _now()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=OP_TIMEOUT_S)
            try:
                conn.request("POST", "/v1/count", body=data,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                status, payload = resp.status, resp.read()
            finally:
                conn.close()
        except OSError as exc:
            return _op_record(t0, False, f"transport: {exc}")
        rec = _op_record(t0, False)
        rec["roundtrip_ms"] = (rec["t1"] - t0) / 1e6
        try:
            reply = json.loads(payload)
        except ValueError:
            rec["error"] = f"HTTP {status}: unparsable body"
            return rec
        if status != 200 or not reply.get("ok"):
            rec["error"] = f"HTTP {status}: {reply.get('error')}"
            return rec
        rec["cached"], rec["coalesced"] = reply["cached"], reply["coalesced"]
        rec["ok"] = int(reply["count"]) == self.want(op)
        if not rec["ok"]:
            rec["error"] = f"count {reply['count']} != {self.want(op)}"
        return rec

    def cpu(self) -> float:
        return cpu_seconds(descendants(self.proc.pid))

    def rss(self) -> float:
        return peak_rss_mb(descendants(self.proc.pid))

    def stop(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        _reap_group(proc.pid)
        if self.trace_file is not None and self.trace_file.exists():
            self.traces.append(json.loads(self.trace_file.read_text()))
        self.trace_file = None


def _reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until no process of the server's process group remains (pool workers,
    resource tracker); kill stragglers."""
    end = time.monotonic() + timeout
    while group_members(pgid):
        if time.monotonic() > end:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            end = time.monotonic() + timeout
        time.sleep(0.02)


class CliRunner(_Base):
    """One ``python -m repro count`` process per op, run sequentially."""

    def __init__(self, *args):
        super().__init__(*args)
        self.trace_dir: Path | None = None
        self._cpu = 0.0
        self._rss = 0.0

    def setup(self, warm: list[dict], trace_file: Path | None = None) -> float:
        t0 = time.perf_counter()
        self.info = self.write_inputs()
        self.trace_dir = None
        if trace_file is not None:
            self.trace_dir = trace_file.with_suffix("")
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        # one invocation warms the page cache, the interpreter's included
        self.warm_pass(warm, self.w.mix[:1])
        return time.perf_counter() - t0

    def run_op(self, op: Op, op_id: int) -> dict:
        if self.trace_dir is not None:
            argv = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), "--spans",
                    str(self.trace_dir / f"{op_id}.json"), "--op", str(op_id)]
        else:
            argv = [sys.executable, "-m", "repro"]
        argv += ["count", "--graph", str(self.info[op.graph]["path"]), "--pattern", op.pattern,
                 "--engine", op.engine]
        out, err = self.workdir / "cli.out", self.workdir / "cli.err"
        t0 = _now()
        try:
            with open(out, "wb") as fo, open(err, "wb") as fe:
                proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(), stdout=fo,
                                        stderr=fe, stdin=subprocess.DEVNULL)
            # os.wait4 (for the child's own rusage) cannot time out: a timer
            # kills a hung child instead
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except OSError as exc:
            return _op_record(t0, False, f"spawn: {exc}")
        rec = _op_record(t0, False)
        if op_id >= 0:
            self._cpu += usage.ru_utime + usage.ru_stime
            self._rss = max(self._rss, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            rec["error"] = f"exit {proc.returncode}: {err.read_text(errors='replace')[-300:]}"
            return rec
        got = None
        for line in out.read_text().splitlines():
            if line.startswith("count"):
                got = int(line.split(":", 1)[1].strip().replace(",", ""))
        rec["ok"] = got == self.want(op)
        if not rec["ok"]:
            rec["error"] = f"count {got} != {self.want(op)}"
        return rec

    def cpu(self) -> float:
        return self._cpu

    def rss(self) -> float:
        return self._rss

    def stop(self) -> None:
        if self.trace_dir is not None:
            for f in sorted(self.trace_dir.glob("*.json")):
                self.traces.append(json.loads(f.read_text()))
            self.trace_dir = None


RUNNERS = {"inproc": InprocRunner, "http": HttpRunner, "cli": CliRunner}
