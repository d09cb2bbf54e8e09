"""Run one workload of the refsum benchmark and print its metrics.

    python3 bench/run.py --workload cli-paper|bib-large|records-cache \\
        --seed N --seconds S --trace 0|1

Run it from the root of a refsum checkout; the program is imported from
./src. Inputs are generated from the seed under bench/out/ and removed at
the end. Progress goes to stderr. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. A traced run also leaves the spans of its first operation in
bench/out/trace-<workload>.json, as a list of [name, parent index, start,
end] with times in seconds.

Nothing in this file imports refsum: the program runs in child processes,
and the checker compares their output with the generators' ground truth.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import check
import gen
from spans import median_layers

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
CHILD = str(BENCH / "child.py")
SETUP_PROBES = 15         # fresh processes per set-up measurement
CHILD_TIMEOUT = 150       # seconds before a hung child is killed
# What the installed `refsum` console script runs.
LAUNCHER = "import sys; from refsum.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark could not run the workload; no result is printed."""


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment, with refsum importable from ./src, no
    citation cache preset, and bytecode cached as for an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"),
                                                       env.get("PYTHONPATH"))))
    env.pop("REFSUM_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], cwd: Path, env: dict, stderr_path: Path):
    """Run one child to its end: wall s, CPU s, peak RSS MB, stdout, exit code."""
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            out.decode("utf-8"), proc.returncode)


def _stderr_tail(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")[-2000:]


def setup_seconds(workload: str, rundir: Path, env: dict, root: Path) -> float:
    """Median set-up time over fresh processes, after one that fills the
    bytecode cache."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        *_, out, code = spawn([sys.executable, CHILD, "setup", workload, str(rundir)],
                              root, env, rundir / "stderr.txt")
        if code != 0:
            raise BenchError(f"set-up probe failed:\n{_stderr_tail(rundir / 'stderr.txt')}")
        times.append(float(out.strip().splitlines()[-1]))
    return median(times[1:])


def cli_argv(inputs: gen.Inputs, traced: bool) -> list[str]:
    head = [sys.executable, CHILD, "cli"] if traced else [sys.executable, "-c", LAUNCHER]
    return head + ["summarize", "paper.bib", "--taxonomy", "taxonomy.tax",
                   "--provider", "mock", "--counts", "counts.json",
                   "--paper-authors", inputs.paper_authors, "--workers", str(gen.WORKERS)]


def run_cli(inputs: gen.Inputs, rundir: Path, env: dict, seconds: float,
            traced: bool, trace_path: Path) -> dict:
    """cli-paper: sequential fresh `refsum summarize` processes."""
    argv = cli_argv(inputs, traced)
    walls, cpus, rsss, layers = [], [], [], []
    first, first_spans, problems, failed = None, None, [], 0
    deadline = time.perf_counter() + seconds
    while len(walls) < gen.MIN_OPS or time.perf_counter() < deadline:
        wall, cpu, rss, out, code = spawn(argv, rundir, env, rundir / "stderr.txt")
        if traced and code == 0:
            child = json.loads(out.strip().splitlines()[-1])
            code, out = child["code"], child["stdout"]
            layers.append(child["layers"])
            first_spans = first_spans or child["spans"]
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        if code != 0:
            failed += 1
            log(f"refsum summarize exited {code}:\n{_stderr_tail(rundir / 'stderr.txt')}")
            continue
        if first is None:
            first = out
            problems += check.check_refset(out.rstrip("\n"), inputs.refs)
        elif out != first:
            problems.append("two runs of refsum summarize printed different text")
    result = {"attempted": len(walls), "failed": failed, "problems": problems,
              "wall_s": median(walls), "cpu_s": median(cpus), "peak_rss_mb": median(rsss)}
    if traced:
        result["layers"] = median_layers(layers)
        result["layers"]["trace.op_s"] = result["wall_s"]
        trace_path.write_text(json.dumps(first_spans or []), encoding="utf-8")
    return result


def run_inprocess(workload: str, inputs: gen.Inputs, rundir: Path, env: dict,
                  seconds: float, traced: bool, trace_path: Path, root: Path) -> dict:
    """bib-large and records-cache: passes in one fresh worker process."""
    result_path = rundir / "result.json"
    argv = [sys.executable, CHILD, "pipeline", workload, str(rundir), str(seconds),
            "1" if traced else "0", str(result_path), str(trace_path)]
    *_, code = spawn(argv, root, env, rundir / "stderr.txt")
    if code != 0:
        raise BenchError(f"{workload} worker exited {code}:\n"
                         f"{_stderr_tail(rundir / 'stderr.txt')}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    first = res["first"]
    truth = {ref.id: ref for ref in inputs.refs}
    unknown = [rid for rid in first["ids"] if rid not in truth]
    reached = [truth[rid] for rid in first["ids"] if rid in truth]
    problems = [f"records not in the input: {unknown[:5]}"] if unknown else []
    if not res["same"]:
        problems.append("passes differ in text, records or scan issues")
    texts = first["texts"]
    if workload == "bib-large":
        problems += check.check_refset(texts[0], reached)
        named = {key for _severity, key, _message in first["issues"]}
        problems += [f"malformed block {key} is named in no scan issue"
                     for key in inputs.broken if key not in named]
    else:
        if texts[2:] != texts[:2]:
            problems.append("the warm half printed other text than the cold half")
        problems += check.check_refset(texts[0], reached)
        problems += check.check_prodset(texts[1], reached)
        if res["warm_provider_calls"]:
            problems.append(f"the warm half made {res['warm_provider_calls']} provider calls")
    res.update(attempted=res["passes"] * len(inputs.refs),
               failed=res["passes"] * (len(inputs.refs) - len(reached)),
               problems=problems)
    return res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "refsum" / "__init__.py").is_file():
        log("no refsum sources under ./src; run from the root of a refsum checkout")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = bool(args.trace)

    inputs = gen.GENERATORS[args.workload](args.seed)
    rundir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    inputs.write(rundir)
    trace_path = OUT / f"trace-{args.workload}.json"
    env = child_env(root)
    try:
        metrics: dict[str, float] = {}
        if not traced:
            log(f"{args.workload}: set-up, {SETUP_PROBES} fresh processes")
            metrics["setup_s"] = setup_seconds(args.workload, rundir, env, root)
        log(f"{args.workload}: measuring for {args.seconds:g} s"
            + (" with tracing" if traced else ""))
        if args.workload == "cli-paper":
            res = run_cli(inputs, rundir, env, args.seconds, traced, trace_path)
        else:
            res = run_inprocess(args.workload, inputs, rundir, env, args.seconds,
                                traced, trace_path, root)
    except BenchError as exc:
        log(str(exc))
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for problem in res["problems"]:
        log(f"INCORRECT: {problem}")
    if traced:
        wanted = spec["per_layer"]
        values = {m["name"]: res["layers"].get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {**{k: res[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}, **metrics}
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
