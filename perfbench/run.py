"""Benchmark of the trinities library: one command, three workloads.

    python3 perfbench/run.py --workload fixtures|grid-ladder|small-corpus \
        --seed N --seconds S --trace 0|1

The library is imported from the repository's ``src/``.
Inputs are generated from the seed. Every operation's output is checked,
and the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The lines before
it state the same figures for a reader, with sample counts and
``fail_ratio``. See README.md for definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

try:
    import workloads  # noqa: E402  (its generators use the library's document format)
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import the library from {ROOT / 'src'}: {exc}")

SETUP_REPEATS = 15
# Whole run, children included, must end well inside three minutes.
RUN_LIMIT_S = 170.0

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


class Child(NamedTuple):
    """One finished child process."""

    code: int
    stdout: bytes
    stderr: bytes
    seconds: float  # CPU time (user + system), its reaped children included
    rss_mb: float  # peak resident set size


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._n = 0

    def spawn(self, argv: list[str]) -> Child:
        """Run a child to completion. A child still running at the deadline
        is killed (exit code -9)."""
        self._n += 1
        out_path = self.work / f"child{self._n}.out"
        err_path = self.work / f"child{self._n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, self.deadline - clock()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), cpu, usage.ru_maxrss / 1024)

    def worker(self, *args: str) -> tuple[dict, Child]:
        """Run ``worker.py`` and parse the JSON object on its last stdout line."""
        child = self.spawn([sys.executable, str(WORKER), *args])
        if child.code != 0:
            raise BenchError(f"worker {args[0]} failed ({child.code}): {child.stderr.decode(errors='replace')[-2000:]}")
        return json.loads(child.stdout.decode().splitlines()[-1]), child


def write_inputs(docs: list[dict], work: Path) -> Path:
    """Write each document to the work directory; return the list file."""
    records = []
    for d in docs:
        path = work / f"{d['name']}.json"
        path.write_text(d["text"], encoding="utf-8")
        records.append({**{k: v for k, v in d.items() if k != "text"}, "path": str(path)})
    list_path = work / "inputs.json"
    list_path.write_text(json.dumps(records), encoding="utf-8")
    return list_path


def fixtures_pass(runner: Runner, docs_list: Path, seed: int, traced: bool) -> tuple[dict, list[dict], float]:
    """``report`` then ``verify`` on each fixture, each a fresh process."""
    records = json.loads(docs_list.read_text(encoding="utf-8"))
    times, failed, problems, snaps, rss = {"report": [], "verify": []}, 0, [], [], 0.0
    for d in records:
        for command in ("report", "verify"):
            if traced:
                trace_file = runner.work / f"trace-{d['name']}-{command}.json"
                argv = [sys.executable, str(WORKER), "cli", str(trace_file), command, d["path"]]
            else:
                argv = [sys.executable, "-m", "trinities.cli", command, d["path"]]
            child = runner.spawn(argv)
            times[command].append(child.seconds)
            rss = max(rss, child.rss_mb)
            bad = workloads.check_fixture(d["name"], command, seed, child.stdout, child.code)
            if bad:
                failed += 1
                problems.append(f"{d['name']} {command}: {'; '.join(bad)}")
            if traced and trace_file.exists():
                snaps.append(json.loads(trace_file.read_text(encoding="utf-8")))
    record = {
        "wall_s": sum(times["report"]) + sum(times["verify"]),
        "report_s": sum(times["report"]),
        "verify_s": sum(times["verify"]),
        "report_samples": times["report"],
        "verify_samples": times["verify"],
        "attempted": 2 * len(records),
        "failed": failed,
        "problems": problems,
    }
    return record, snaps, rss


def run_pass(runner: Runner, workload: str, seed: int, docs_list: Path, traced: bool) -> tuple[dict, list[dict], float]:
    """One pass in fresh processes: (pass record, tracer snapshots, peak RSS
    in MB of the process doing the work)."""
    if workload == "fixtures":
        return fixtures_pass(runner, docs_list, seed, traced)
    args = ["pass", workload, str(docs_list)]
    if traced:
        trace_file = runner.work / "trace-pass.json"
        args.append(str(trace_file))
    record, child = runner.worker(*args)
    snaps = [json.loads(trace_file.read_text(encoding="utf-8"))] if traced else []
    return record, snaps, child.rss_mb


def measure(runner: Runner, workload: str, seed: int, seconds: float, docs_list: Path) -> dict:
    """Untraced run: whole passes while the next one is expected to end
    within ``seconds`` (at least one), with half the set-up processes before
    them and half after, so that the set-up median spans the run."""

    def setup_times(n: int) -> list[float]:
        return [runner.worker("setup", str(docs_list))[0]["setup_s"] for _ in range(n)]

    setups = setup_times(SETUP_REPEATS // 2)
    passes, rss, start = [], [], clock()
    while True:
        record, _, pass_rss = run_pass(runner, workload, seed, docs_list, traced=False)
        passes.append(record)
        rss.append(pass_rss)
        if clock() - start + record["wall_s"] > seconds:
            break
    setups += setup_times(SETUP_REPEATS - len(setups))
    # Per operation, the best of the run's passes: the work is deterministic,
    # so the minimum drops slow-downs the machine imposed on one operation.
    best = {
        part: [min(times) for times in zip(*(p[f"{part}_samples"] for p in passes))]
        for part in ("report", "verify")
    }
    deciles = statistics.quantiles(best["report"], n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best["report"]) + sum(best["verify"]),
        "report_s": sum(best["report"]),
        "verify_s": sum(best["verify"]),
        "graph_p50_s": deciles[4],
        "graph_p90_s": deciles[8],
        "peak_rss_mb": max(rss),
    }
    notes = {
        "passes": len(passes),
        "setup processes": SETUP_REPEATS,
        "latency samples": len(best["report"]),
    }
    return {"passes": passes, "metrics": metrics, "notes": notes}


def measure_traced(runner: Runner, workload: str, seed: int, docs_list: Path, names: list[str]) -> dict:
    """Traced run: one untraced pass for reference, then one traced pass."""
    plain, _, _ = run_pass(runner, workload, seed, docs_list, traced=False)
    traced, snaps, _ = run_pass(runner, workload, seed, docs_list, traced=True)
    snap = tracer.merge(snaps)
    extra = {"tracer.overhead_s": traced["wall_s"] - plain["wall_s"], "tracer.traced_wall_s": traced["wall_s"]}
    metrics = {}
    for name in names:
        value = extra[name] if name in extra else tracer.metric_value(snap, name)
        if value is None:
            raise BenchError(f"per-layer metric {name!r} is not traced")
        metrics[name] = value
    notes = {"absent": ", ".join(snap["absent"]) or "none", "untraced wall_s": plain["wall_s"]}
    return {"passes": [plain, traced], "metrics": metrics, "notes": notes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fixtures", "grid-ladder", "small-corpus"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = ROOT
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = clock() + RUN_LIMIT_S
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(root, work, deadline)
        docs_list = write_inputs(workloads.make_inputs(args.workload, args.seed, root), work)
        if args.trace:
            result = measure_traced(runner, args.workload, args.seed, docs_list, wanted)
        else:
            result = measure(runner, args.workload, args.seed, args.seconds, docs_list)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    attempted = sum(p["attempted"] for p in result["passes"])
    failed = sum(p["failed"] for p in result["passes"])
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]} for name in wanted}
    # graph_p50_s is printed but not judged: see README.md.
    printed = {name: {"value": value, "unit": units.get(name, "s")} for name, value in result["metrics"].items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value}")
    print(f"  attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4g}")
    for p in result["passes"]:
        for problem in p["problems"]:
            print(f"  FAILED {problem}")
    for name, m in printed.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
