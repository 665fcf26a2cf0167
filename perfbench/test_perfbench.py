"""Self-tests of the benchmark: document generators, span arithmetic,
golden comparison and one traced run on the demo workspace."""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(name):
    generate = workloads.GENERATORS[name]
    for seed in (0, 1, 7, 12345):
        assert generate(seed) == generate(seed)
    assert len({generate(seed) for seed in range(6)}) == 6


def test_default_documents_match_the_golden_index():
    with open(os.path.join(HERE, "golden", "golden.json"), encoding="utf-8") as handle:
        index = json.load(handle)
    for name, generate in workloads.GENERATORS.items():
        text = generate(workloads.DEFAULT_SEED).encode()
        assert run.sha256(text) == index[name]["document_sha256"], name


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generated_documents_parse(name):
    from ordalg.workspace import parse

    ws = parse(workloads.GENERATORS[name](3))
    assert ws.suite_defaults["run"]


def test_symbolic_seed_moves_points_not_structure():
    a, b = workloads.symbolic(0), workloads.symbolic(2)
    kinds = [line for line in a.splitlines() if line.startswith(("[", "kind", "structure", "window"))]
    assert kinds == [line for line in b.splitlines() if line.startswith(("[", "kind", "structure", "window"))]
    assert [line for line in a.splitlines() if line.startswith("set")] != [
        line for line in b.splitlines() if line.startswith("set")
    ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    """root [0,10] holds a [1,4], which holds b [2,3], and c [5,8],
    which calls itself over [6,7]."""
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def step(to):
        clock.now = to

    def b():
        step(3)

    def a():
        step(2)
        wb()
        step(4)

    def c(depth=0):
        if depth:
            step(7)
            return
        step(6)
        wc(1)
        step(8)

    def root():
        step(1)
        wa()
        step(5)
        wc()
        step(10)

    wa, wb, wc = (spans._timed(tracer, n, f) for n, f in (("a", a), ("b", b), ("c", c)))
    spans._timed(tracer, "root", root)()
    summary = spans.summarize(tracer)
    assert summary["self_time"] == {"root": 4.0, "a": 2.0, "b": 1.0, "c": 3.0}
    assert summary["total"] == {"root": 10.0, "a": 3.0, "b": 1.0, "c": 3.0}
    assert summary["calls"] == {"root": 1, "a": 1, "b": 1, "c": 2}
    by_id = {s[0]: s for s in summary["spans"]}
    parent = {f"{s[1]}@{s[2]:g}": by_id[s[4]][1] if s[4] is not None else None for s in summary["spans"]}
    assert parent == {"root@0": None, "a@1": "root", "b@2": "a", "c@5": "root", "c@6": "c"}
    assert not tracer.child_time and not tracer.owner


def test_timeline_leaves_out_stops_and_scales_each_stretch():
    """The child ran over [0,1] at the reference speed and over [1.5,2.5]
    at half of it; it was stopped over [1,1.5]."""
    ref = calibrate.REFERENCE_S
    timeline = calibrate.Timeline([(0.0, 1.0, ref), (1.5, 2.5, 2 * ref)])
    assert timeline.seconds(0.0, 2.5) == 2.0
    assert timeline.scaled(0.0, 2.5) == 1.5
    assert timeline.seconds(0.5, 2.0) == 1.0
    assert timeline.scaled(0.5, 2.0) == 0.75
    assert timeline.scaled(1.1, 1.4) == 0.0


def test_mismatch_allows_only_failing_witnesses_to_move():
    golden = b"x/a\tlaw\tpass\t-\nx/b\tlaw\tfail\t(1,2)\n"
    ok = {"code": 1, "stderr": b"", "check_s": 1.0}
    assert run.mismatch({**ok, "stdout": golden}, golden, 1, True) is None
    moved = b"x/a\tlaw\tpass\t-\nx/b\tlaw\tfail\t(2,1)\n"
    assert run.mismatch({**ok, "stdout": moved}, golden, 1, True)
    assert run.mismatch({**ok, "stdout": moved}, golden, 1, False) is None
    flipped = b"x/a\tlaw\tfail\t(0)\nx/b\tlaw\tfail\t(1,2)\n"
    assert run.mismatch({**ok, "stdout": flipped}, golden, 1, False)
    assert run.mismatch({**ok, "stdout": golden}, golden, 0, True)
    assert run.mismatch({**ok, "stdout": golden, "stderr": b"Traceback"}, golden, 1, True)


def test_traced_demo_reports_every_layer(tmp_path):
    marks = tmp_path / "marks.json"
    demo = os.path.join(ROOT, "docs", "demo.workspace")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(marks), demo, str(os.getpid()), "--trace"],
        capture_output=True,
        timeout=120,
    )
    with open(os.path.join(HERE, "golden", "demo.records"), "rb") as handle:
        assert proc.stdout == handle.read()
    assert proc.returncode == 1 and not proc.stderr
    with open(marks, encoding="utf-8") as handle:
        summary = json.load(handle)["trace"]
    metrics = spans.layer_metrics(summary)
    assert set(metrics) == set(spans.layer_metric_names())
    for name in ("suites.laws_s", "suites.monad_s", "suites.convolution_s", "convolution.apply_T_calls"):
        assert metrics[name] > 0, name
    assert metrics["suites.records"] == 77


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GENERATORS)
