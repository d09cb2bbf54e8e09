"""Entry point of the fresh processes the benchmark starts.

    child.py setup WORKLOAD RUNDIR
        import refsum and load what WORKLOAD needs; print the seconds it took
    child.py pipeline WORKLOAD RUNDIR SECONDS TRACE RESULT SPANS
        run an in-process workload; write its result (and, traced, the
        first pass's spans) as JSON
    child.py cli ARGS...
        run `refsum.cli.main(ARGS)` under tracing; print its stdout and spans

Only `sys` and `time` are imported before the clock starts, so the timed
imports of refsum are as cold as in a user's shell.
"""

import sys
import time

T0 = time.perf_counter()


def setup(workload: str, rundir: str) -> None:
    if workload == "cli-paper":
        import refsum.cli  # noqa: F401  (the CLI's whole import)
    else:
        import refsum  # noqa: F401
    from pathlib import Path

    import pipeline

    pipeline.load(workload, Path(rundir))
    elapsed = time.perf_counter() - T0
    print(elapsed)


def run_pipeline(workload: str, rundir: str, seconds: str, trace: str,
                 result_path: str, spans_path: str) -> None:
    import json
    from pathlib import Path

    import pipeline

    result = pipeline.run(workload, Path(rundir), float(seconds), trace == "1")
    spans = result.pop("spans", None)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if spans is not None:
        Path(spans_path).write_text(json.dumps(spans), encoding="utf-8")


def traced_cli(argv: list[str]) -> None:
    import refsum.cli
    import_s = time.perf_counter() - T0
    import io
    import json
    from contextlib import redirect_stdout

    from spans import Tracer, instrument, layer_metrics

    tracer = Tracer()
    captured = io.StringIO()
    with instrument(tracer, cli=True), redirect_stdout(captured):
        code = refsum.cli.main(argv)
    summary = tracer.summary()
    layers = layer_metrics(summary)
    layers["cli.import_s"] = import_s
    layers["cli.main_s"] = summary["cli.main"]["total"]
    layers["enrich.provider_calls"] = tracer.counts.get("enrich.provider_calls", 0)
    print(json.dumps({"code": code, "stdout": captured.getvalue(), "layers": layers,
                      "spans": tracer.spans}))


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*args)
    elif mode == "pipeline":
        run_pipeline(*args)
    elif mode == "cli":
        traced_cli(args)
    else:
        sys.exit(f"child.py: unknown mode {mode!r}")
