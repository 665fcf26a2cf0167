"""End-to-end and per-layer benchmark of `ordalg check`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Run from the root of a checkout.  The workload document is generated
from the seed (see workloads.py) and checked with
`ordalg check <doc> --format records`, one process at a time in a closed
loop, for S seconds.  Every run also checks docs/demo.workspace.  Each
output is compared with the golden records in perfbench/golden/; see
README.md for the metrics and how each workload was chosen.

With --trace 0 the result holds the end-to-end metrics, measured without
tracing and scaled to a reference CPU speed (calibrate.py).  With
--trace 1 the workload is checked twice untraced, at the same time, and
then twice traced, at the same time.  One check of each pair is scaled,
with the same slice, so both run beside a twin that does the same work.
The per-layer metrics come from the scaled traced check, every count
must be the same in both traced checks, and the difference in scaled
check time between the two scaled checks is the tracing overhead.
--seconds does not apply to a traced run.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Documents, raw samples and recorded spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden")
OUT = os.path.join(HERE, "out")
DEMO = os.path.join(ROOT, "docs", "demo.workspace")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
TRACED_SLICE_S = 1.0
PR_SET_PDEATHSIG = 1
_LIBC = ctypes.CDLL(None, use_errno=True)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "check_s": "s", "peak_rss_mb": "MB"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _die_with_parent() -> None:
    """Run in the child before exec: the parent may stop the child at any
    moment, so the child must not outlive it.  The setting survives exec."""
    if _LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


def spawn(doc: str, tag: str, *flags: str) -> dict:
    """Start one `ordalg` process on `doc`; `collect` waits for it."""
    base = os.path.join(OUT, tag)
    if os.path.exists(base + ".marks.json"):
        os.remove(base + ".marks.json")
    with open(base + ".stdout", "wb") as out, open(base + ".stderr", "wb") as err:
        start = time.monotonic()
        argv = [sys.executable, CHILD, base + ".marks.json", doc, str(os.getpid()), *flags]
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, preexec_fn=_die_with_parent)
    return {"proc": proc, "base": base, "start": start}


def collect(child: dict, slice_s: float | None = None, before: float | None = None) -> dict:
    """Wait for `child` to end and read what it wrote.

    Times are in seconds.  With `slice_s` the child is stopped every
    `slice_s` seconds to time the loop of calibrate.py, and its times
    are scaled to the reference speed; `before` is the loop time taken
    just before the spawn, and the raw times are kept under `raw_*`.
    """
    proc, start, base = child["proc"], child["start"], child["base"]
    try:
        if slice_s:
            status, timeline = calibrate.watch(proc.pid, start, before, slice_s)
        else:
            _, status = os.waitpid(proc.pid, 0)
            timeline = calibrate.Timeline([(start, time.monotonic(), calibrate.REFERENCE_S)])
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(base + ".stdout", "rb") as handle:
        stdout = handle.read()
    with open(base + ".stderr", "rb") as handle:
        stderr = handle.read()
    marks = {}
    if os.path.exists(base + ".marks.json"):
        with open(base + ".marks.json", encoding="utf-8") as handle:
            marks = json.load(handle)
    intervals = {"wall_s": (start, timeline.stretches[-1][1])}
    if "parsed" in marks:
        intervals["setup_s"] = (marks["start"], marks["parsed"])
        intervals["import_s"] = (marks["start"], marks["imported"])
    if "end" in marks and "parsed" in marks:
        intervals["check_s"] = (marks["parsed"], marks["end"])
    sample = {
        "code": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
        **{k: timeline.scaled(a, b) for k, (a, b) in intervals.items()},
    }
    if slice_s:
        sample.update({f"raw_{k}": timeline.seconds(a, b) for k, (a, b) in intervals.items()})
    if "peak_rss_kb" in marks:
        sample["peak_rss_mb"] = marks["peak_rss_kb"] / 1024
    if "trace" in marks:
        sample["trace"] = marks["trace"]
    return sample


def run_child(doc: str, tag: str, *flags: str, slice_s: float | None = None) -> dict:
    """Run one `ordalg` process on `doc` to its end; see `collect`."""
    before = calibrate.loop() if slice_s else None
    return collect(spawn(doc, tag, *flags), slice_s, before)


def load_golden(name: str) -> tuple[bytes, dict]:
    """The golden records of `name` and their metadata: the exit code and
    the sha256 of the document they were made from."""
    with open(os.path.join(GOLDEN, name + ".records"), "rb") as handle:
        records = handle.read()
    with open(os.path.join(GOLDEN, "golden.json"), encoding="utf-8") as handle:
        return records, json.load(handle)[name]


def mismatch(sample: dict, golden: bytes, code: int, exact: bool) -> str | None:
    """Why `sample` differs from the golden output, or None.

    With `exact` the records must match byte for byte.  Otherwise (a
    symbolic seed other than the default) every check id, law and
    verdict must match, and so must every passing line in full; only the
    witnesses and notes of failing checks may differ.
    """
    if sample["code"] != code:
        return f"exit code {sample['code']}, expected {code}"
    if sample["stderr"]:
        return "stderr: " + sample["stderr"].decode(errors="replace").strip()[-500:]
    if "check_s" not in sample:
        return "no timing marks"
    if exact:
        return None if sample["stdout"] == golden else "records differ from the golden output"
    got, want = sample["stdout"].splitlines(), golden.splitlines()
    if len(got) != len(want):
        return f"{len(got)} records, expected {len(want)}"
    for line, ref in zip(got, want):
        fields, ref_fields = line.split(b"\t"), ref.split(b"\t")
        if fields[:3] != ref_fields[:3] or (ref_fields[2] == b"pass" and line != ref):
            return f"record {line!r} differs from {ref!r}"
    return None


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="rewrite perfbench/golden/ at the default seed")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "ordalg")) or not os.path.isfile(DEMO):
        print(f"error: {ROOT} holds no ordalg source tree (src/ordalg, docs/demo.workspace)", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


def write_golden() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    index = {}
    docs = {"demo": DEMO}
    for name, generate in sorted(workloads.GENERATORS.items()):
        docs[name] = os.path.join(OUT, f"{name}-seed{workloads.DEFAULT_SEED}.workspace")
        with open(docs[name], "w", encoding="utf-8") as handle:
            handle.write(generate(workloads.DEFAULT_SEED))
    for name, doc in docs.items():
        sample = run_child(doc, f"golden-{name}")
        if sample["stderr"] or "check_s" not in sample or sample["code"] not in (0, 1):
            print(f"error: {name}: exit {sample['code']}: {sample['stderr'].decode(errors='replace')}", file=sys.stderr)
            return 1
        with open(os.path.join(GOLDEN, name + ".records"), "wb") as handle:
            handle.write(sample["stdout"])
        with open(doc, "rb") as handle:
            index[name] = {"exit": sample["code"], "document_sha256": sha256(handle.read())}
        print(f"{name}: {len(sample['stdout'].splitlines())} records, exit {sample['code']}")
    with open(os.path.join(GOLDEN, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump(index, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def bench(workload: str, seed: int, seconds: float, traced: bool) -> int:
    text = workloads.GENERATORS[workload](seed)
    tag = f"{workload}-seed{seed}" + ("-trace" if traced else "")
    doc = os.path.join(OUT, tag + ".workspace")
    with open(doc, "w", encoding="utf-8") as handle:
        handle.write(text)
    doc_sha = sha256(text.encode())
    with open(doc + ".sha256", "w", encoding="utf-8") as handle:
        handle.write(f"{doc_sha}  {os.path.basename(doc)}\n")

    failures = []
    golden, meta = load_golden(workload)
    # Only symbolic's records depend on the seed: the other two documents
    # differ by point labels alone, and no label reaches their records.
    exact = workload != "symbolic" or seed == workloads.DEFAULT_SEED
    if seed == workloads.DEFAULT_SEED and doc_sha != meta["document_sha256"]:
        failures.append("the golden output was made from another document; rerun --write-golden")
    demo_golden, demo_meta = load_golden("demo")
    with open(DEMO, "rb") as handle:
        if sha256(handle.read()) != demo_meta["document_sha256"]:
            failures.append("docs/demo.workspace changed since its golden output was made")

    samples, failed = [], 0

    def record(what: str, sample: dict, expect=None) -> dict:
        """Count one `ordalg` process; `expect` is (golden records, golden
        exit code, exact), or None for a setup-only process."""
        nonlocal failed
        samples.append(sample)
        if expect is None:
            ok = sample["code"] == 0 and not sample["stderr"] and "setup_s" in sample
            why = None if ok else f"exit {sample['code']}: {sample['stderr'].decode(errors='replace')[-500:]}"
        else:
            why = mismatch(sample, *expect)
        if why is not None:
            failed += 1
            failures.append(f"{what}: {why}")
        return sample

    expect = (golden, meta["exit"], exact)
    record("demo", run_child(DEMO, f"{tag}-demo"), (demo_golden, demo_meta["exit"], True))
    setups, checks, traces = [], [], []
    if traced:
        # The untraced and the traced check that are compared run under the
        # same conditions: each beside a twin that does the same work, and
        # both stopped once a second to time the loop, so that the spans
        # hold stops for about 1% of their time.  Four checks one after the
        # other would take too long on conv-z4 (see README.md).  The twin
        # of the traced check is the second traced run of the count check.
        for name, flags, into in (("check", (), checks), ("traced", ("--trace",), traces)):
            twin = spawn(doc, f"{tag}-{name}-twin", *flags)
            try:
                scaled = run_child(doc, f"{tag}-{name}", *flags, slice_s=TRACED_SLICE_S)
            finally:
                twin = collect(twin)
            into.extend([record(name, scaled, expect), record(f"{name}-twin", twin, expect)])
    else:
        for i in range(SETUP_REPEATS):
            setups.append(record(f"setup{i}", run_child(doc, f"{tag}-setup{i}", "--setup-only", slice_s=calibrate.SLICE_S)))
        deadline = time.monotonic() + seconds
        while not checks or time.monotonic() < deadline:
            sample = run_child(doc, f"{tag}-check{len(checks)}", slice_s=calibrate.SLICE_S)
            checks.append(record(f"check{len(checks)}", sample, expect))
    if len({s["stdout"] for s in checks + traces}) > 1:
        failures.append("the records differ between checks of one document")
    if traced and all("trace" in s for s in traces):
        first, second = (spans.exact_counts(s["trace"]) for s in traces)
        drift = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        if drift:
            print(f"error: counts differ between two traced runs: {', '.join(drift)}", file=sys.stderr)
            return 1

    def end_to_end(prefix: str) -> dict:
        return {
            "wall_s": median_of(checks, prefix + "wall_s"),
            "setup_s": median_of(setups + checks, prefix + "setup_s"),
            "check_s": median_of(checks, prefix + "check_s"),
        }

    metrics, raw = {}, {}
    if all("check_s" in s for s in checks + traces) and all("setup_s" in s for s in setups):
        if traced:
            metrics = layer_metrics(checks[0], traces[0])
        else:
            metrics = {**end_to_end(""), "peak_rss_mb": median_of(checks, "peak_rss_mb")}
            raw = end_to_end("raw_")
    records_sha = sha256(checks[0]["stdout"])
    attempted = len(samples)
    result = {
        "workload": workload,
        "seed": seed,
        "document_sha256": doc_sha,
        "records_sha256": records_sha,
        "failures": failures,
        "metrics": metrics,
        "raw": raw,
        "samples": [{k: v for k, v in s.items() if k not in ("stdout", "stderr", "trace")} for s in samples],
    }
    with open(os.path.join(OUT, tag + ".result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    if traces and "trace" in traces[0]:
        with open(os.path.join(OUT, f"{tag}-traced.spans.json"), "w", encoding="utf-8") as handle:
            json.dump(traces[0]["trace"], handle)

    for why in failures:
        print(f"FAILED {why}", file=sys.stderr)
    units = {**END_TO_END_UNITS, **LAYER_UNITS}
    print(f"workload {workload}  seed {seed}  document sha256 {doc_sha}")
    print(f"records sha256 {records_sha}  ({'golden' if exact else 'no golden output for this seed'})")
    print(f"ordalg processes {attempted} attempted, {failed} failed  failed_frac {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6f} {units[name]}")
    if raw:
        print(f"unscaled, in seconds as measured (the scaled ones assume a {calibrate.REFERENCE_S * 1e3:g} ms loop):")
        for name, value in raw.items():
            print(f"  {name:42s} {value:>16.6f} s")
    metrics_out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics_out}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


LAYER_UNITS = {
    name: _layer_unit(name)
    for name in ["cli.import_s", *spans.layer_metric_names(), "trace.check_s", "trace.overhead_s"]
}


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the scaled traced check, in raw seconds, and
    its check time and overhead over the scaled untraced check, both
    scaled."""
    out = {"cli.import_s": traced["raw_import_s"], **spans.layer_metrics(traced["trace"])}
    out["trace.check_s"] = traced["check_s"]
    out["trace.overhead_s"] = traced["check_s"] - untraced["check_s"]
    return out


if __name__ == "__main__":
    sys.exit(main())
