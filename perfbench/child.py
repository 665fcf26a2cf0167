"""One `ordalg check <doc> --format records` process, with timing marks.

    python3 perfbench/child.py MARKS DOC PARENT_PID [--setup-only] [--trace]

Runs the program's own CLI entry point from the checkout's `src/` and
writes a JSON object to MARKS when it ends.  It holds CLOCK_MONOTONIC
marks: `start` (interpreter up, before `ordalg` is imported),
`imported`, `parsed` (the workspace is parsed and validated) and `end`
(the last record is written and flushed); and `peak_rss_kb`.  The only
hook in an untraced run is a wrapper around the `parse` that
`ordalg.cli` calls, which records when it returns.  With --setup-only
the process stops right after parsing.  With --trace every layer in
`spans.py` is wrapped and the tracer's summary is added to MARKS.

The parent starts this process with PR_SET_PDEATHSIG set to SIGKILL (see
run.py), so that it dies with the parent; the check on PARENT_PID below
covers a parent that ended before the setting was made.  The setting is
made in the parent so that this process loads neither ctypes nor libffi,
whose memory would count in `peak_rss_kb`.
"""
import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TIMEOUT_S = 170


def main(argv) -> int:
    marks_path, doc = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    traced = "--trace" in argv
    # The default SIGALRM action ends the process, so a hung check cannot
    # outlive the benchmark's own time limit.
    signal.alarm(TIMEOUT_S)
    if os.getppid() != int(argv[2]):
        raise SystemExit("the benchmark process has already ended")
    sys.path.insert(0, SRC)
    import ordalg.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ordalg imported from {cli.__file__}, not from {SRC}")
    marks = {"start": START, "imported": time.monotonic()}

    tracer = None
    if traced:
        import spans as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    parse = cli.parse

    def timed_parse(text):
        ws = parse(text)
        marks["parsed"] = time.monotonic()
        return ws

    cli.parse = timed_parse
    code = 0
    try:
        if setup_only:
            with open(doc, encoding="utf-8") as handle:
                timed_parse(handle.read())
        else:
            code = cli.main(["check", doc, "--format", "records"])
        sys.stdout.flush()
        marks["end"] = time.monotonic()
    finally:
        marks["peak_rss_kb"] = _peak_rss_kb()
        if tracer is not None:
            marks["trace"] = tracing.summarize(tracer)
        with open(marks_path, "w", encoding="utf-8") as handle:
            json.dump(marks, handle)
    return code


def _peak_rss_kb() -> int:
    """Peak resident memory of this process image.  The rusage maxrss of
    a child would also count the parent's memory: on Linux it keeps the
    high-water mark of the address space that exec replaced."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
