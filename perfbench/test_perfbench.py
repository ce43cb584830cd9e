"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Covers what the benchmark's figures rest on: work counters that repeat
exactly, seeded inputs, a correctness check that catches a wrong record, and
a BENCHMARK.json that lists exactly the metrics the benchmark prints.
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import read_spans  # noqa: E402

common.require_source()


@pytest.fixture(scope="module")
def mirror_input(tmp_path_factory):
    """Three degenerate and two nondegenerate mirror-form classes."""
    ref = common.load_reference("mirror-5x5")
    sigs = ref["signatures"]
    by_kind = {}
    for key, s, ms in sorted(ref["classes"], key=lambda c: c[2]):
        by_kind.setdefault(json.loads(sigs[s])["kind"], []).append(key)
    keys = by_kind["degenerate"][:3] + by_kind["infinite"][:2]
    path = tmp_path_factory.mktemp("in") / "input.txt"
    path.write_text("".join(common.matrix_line(k, 5) + "\n"
                            for k in keys))
    return str(path)


def _traced_counters(tmp_path, args):
    spans = str(tmp_path / "trace.spans")
    cmd = [sys.executable, os.path.join(common.HERE, "tracer.py"), spans] + args \
        + common.BUDGET_ARGS + ["--out", str(tmp_path / "out.jsonl")]
    subprocess.run(cmd, env=common.child_env(), check=True, timeout=120)
    return read_spans(spans)[0]["counters"]


@pytest.mark.parametrize("args", [["classify", "--rows", "3", "--cols", "5"],
                                  ["classify", "--rows", "3", "--cols", "5", "--workers", "2"],
                                  "mirror"])
def test_work_counters_repeat_exactly(tmp_path, mirror_input, args):
    if args == "mirror":
        args = ["classify", "--from", mirror_input]
    first = _traced_counters(tmp_path, args)
    second = _traced_counters(tmp_path, args)
    assert first == second
    assert first.get("enumerate.leaves", 0) + first.get("classify.classes", 0) > 0
    if "--from" in args:
        assert first["rewrite.kb_calls"] > 0 and first["rewrite.pairs_processed"] > 0


def test_every_traced_name_exists():
    # in a separate process: install() patches the gridgroups modules
    code = "import tracer; t = tracer.Tracer(); tracer.install(t); print(len(t.names))"
    out = subprocess.run([sys.executable, "-c", code], cwd=common.HERE, env=common.child_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert int(out.stdout) > 0


def test_a_missing_trace_target_is_an_error():
    class Owner:
        pass

    t = tracer.Tracer()
    with pytest.raises(AttributeError, match="Owner.gone"):
        t.wrap(Owner, "gone", "span")
    with pytest.raises(AttributeError, match="Owner.gone"):
        t.count_calls(Owner, "gone", "counter")


@pytest.mark.parametrize("workload", ["degenerate-3x9", "mirror-5x5"])
def test_seeded_inputs_repeat(workload):
    ref = common.load_reference(workload)
    first, again, other = (common.stratified_sample(seed, ref, 100, 1e9)
                           for seed in (7, 7, 8))
    assert first == again
    assert first != other and len(first) == len(other)


def test_reference_check_catches_a_wrong_record(tmp_path, mirror_input):
    out = tmp_path / "out.jsonl"
    subprocess.run([sys.executable, "-m", "gridgroups.cli", "classify", "--from", mirror_input,
                    "--out", str(out)] + common.BUDGET_ARGS,
                   env=common.child_env(), check=True, timeout=120)
    expected = common.expected_by_key(common.load_reference("mirror-5x5"))
    with open(mirror_input) as fh:
        keys = [common.key_from_matrix_text(line.replace("/", " ")) for line in fh]
    assert run.check_records(str(out), 0, keys, expected) == (5, 0)
    assert run.check_records(str(out), 1, keys, expected) == (5, 5)
    lines = out.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["flags"]["row_connected"] = not doc["flags"]["row_connected"]
    # one record wrong and one missing
    out.write_text("\n".join([json.dumps(doc)] + lines[1:-1]) + "\n")
    assert run.check_records(str(out), 0, keys, expected) == (5, 2)


def test_max_rss_is_the_campaigns_not_the_harness(tmp_path):
    ballast = b"x" * (80 << 20)  # noqa: F841  (this process's RSS, kept resident)
    result = run.run_process([sys.executable, "-c", "pass"], str(tmp_path / "err"))
    assert result["exit"] == 0
    assert 0 < result["max_rss_mb"] < 40
    assert result["wall_s"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    layers = dict(run.empty_layers(), **{"trace.overhead_ratio": (0, "ratio")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
