"""Campaign benchmark for gridgroups.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs real `gridgroups classify` campaigns as closed-loop batch jobs: one
campaign at a time, each in its own process, until S seconds have passed,
and checks every record against the stored per-class reference.  With
--trace 0 it prints the end-to-end metrics (medians over the campaigns);
with --trace 1 it alternates plain and traced campaigns and prints the
per-module metrics of the traced ones.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (all at the acceptance budgets --max-cosets 20000
--kb-max-rules 1500):
  rank-3x7        classify --rows 3 --cols 7, serial: every module in
                  proportion, the single-thread baseline
  rank-3x7-w2     the same campaign with --workers 2: the only workload
                  that uses the worker pool, with enumeration in the parent
  degenerate-3x9  classify --from a seeded, cost-stratified sample of the
                  degenerate rank-3x9 classes: the bulk of every big sweep
  mirror-5x5      classify --from a seeded, cost-stratified sample of the
                  rank-5x5 mirror-form classes: the Knuth-Bendix path
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

WORKLOADS = ("rank-3x7", "rank-3x7-w2", "degenerate-3x9", "mirror-5x5")
SETUP_PROBES_PER_CAMPAIGN = 3
CAMPAIGN_TIMEOUT_S = 150
WORK_DIR = os.path.join(common.ROOT, ".perfbench-work")
LAUNCHER = os.path.join(common.HERE, "launch.py")

# time from process start until the CLI is imported and the lazy caches the
# first class pays for are built
SETUP_PROBE = """
import gridgroups.cli
from gridgroups import smallgroups, wordprob
smallgroups.catalog()
wordprob.hom_targets(6)
print("ready", flush=True)
"""

END_TO_END = (("classes_per_s", "1/s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("max_rss_mb", "MB"), ("setup_s", "s"))


# ---------------------------------------------------------------------------
# inputs and the reference

class Workload:
    """Campaign arguments, inputs and expected records for one run."""

    def __init__(self, name: str, seed: int, work_dir: str):
        ref = common.load_reference("rank-3x7" if name == "rank-3x7-w2" else name)
        self.table_row = ref.get("table_row")
        self.expected = common.expected_by_key(ref)
        if name.startswith("rank-3x7"):
            self.args = ["classify", "--rows", "3", "--cols", "7"]
            if name == "rank-3x7-w2":
                self.args += ["--workers", "2"]
            self.keys = list(self.expected)
        else:
            if name == "degenerate-3x9":
                self.keys = common.stratified_sample(seed, ref, common.STRATA_3x9,
                                                     common.MAX_MS_3x9, kinds=("degenerate",))
                cols = 9
            else:
                self.keys = common.stratified_sample(seed, ref, common.STRATA_5x5,
                                                     common.MAX_MS_5x5, spread=common.SPREAD_5x5)
                cols = 5
            path = os.path.join(work_dir, "input.txt")
            with open(path, "w") as fh:
                fh.writelines(common.matrix_line(k, cols) + "\n" for k in self.keys)
            self.args = ["classify", "--from", path]
        self.args += common.BUDGET_ARGS


def check_records(out_path: str, exit_code: int, keys: list, expected: dict,
                  table_row=None) -> tuple[int, int]:
    """(classes attempted, classes failed) for one campaign's output.

    A class fails when its record is missing or disagrees with the
    reference; an extra record counts as one more failure, and a nonzero
    exit or a wrong summary-table row fails every class.
    """
    attempted = len(keys)
    if exit_code != 0:
        return attempted, attempted
    try:
        with open(out_path) as fh:
            docs = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError):
        return attempted, attempted
    got = {common.key_from_matrix_text(doc["matrix"]): common.signature(doc) for doc in docs}
    bad = sum(1 for k in keys if got.get(k) != expected.get(k))
    bad += max(0, len(docs) - len(keys))
    if table_row is not None and bad == 0:
        from gridgroups.cli import format_table_csv, summarize
        with open(out_path) as fh:
            if format_table_csv(summarize(fh)).splitlines()[1] != table_row:
                bad = attempted
    return attempted, min(bad, attempted)


# ---------------------------------------------------------------------------
# processes

def run_process(cmd: list, err_path: str, timeout: float = CAMPAIGN_TIMEOUT_S) -> dict:
    """Run one process to completion: its exit code, wall s, CPU s and max RSS MB.

    launch.py starts and measures the process, so that its peak RSS does not
    start at this process's (see launch.py).  CPU is summed over the process
    and every worker it reaped, and max RSS is the largest of them.  The
    launcher leads its own process group, so a timeout or an interrupt kills
    the process and its workers too.
    """
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, LAUNCHER] + cmd, env=common.child_env(),
                                stdout=subprocess.PIPE, stderr=err, start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            out = proc.communicate()[0]
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    try:
        result = json.loads(out)
    except ValueError:  # the launcher itself failed or was killed
        result = {"exit": proc.returncode or 1, "wall_s": time.perf_counter() - t0,
                  "cpu_s": 0.0, "max_rss_mb": 0.0}
    if result["exit"] != 0:
        with open(err_path, errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"perfbench: {' '.join(cmd[:4])} ... exited {result['exit']}\n{tail}",
              file=sys.stderr)
    return result


def setup_time() -> float:
    """Seconds from process start until the ready line arrives."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], env=common.child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return elapsed


class Campaigns:
    """Closed loop: the next campaign starts when the previous one exits."""

    def __init__(self, workload: Workload, work_dir: str):
        self.workload = workload
        self.out = os.path.join(work_dir, "out.jsonl")
        self.spans = os.path.join(work_dir, "trace.spans")
        self.err = os.path.join(work_dir, "stderr.txt")
        self.attempted = 0
        self.failed = 0

    def run(self, traced: bool) -> dict:
        args = self.workload.args + ["--out", self.out]
        if traced:
            cmd = [sys.executable, os.path.join(common.HERE, "tracer.py"), self.spans] + args
        else:
            cmd = [sys.executable, "-m", "gridgroups.cli"] + args
        result = run_process(cmd, self.err)
        code = result["exit"]
        w = self.workload
        attempted, failed = check_records(self.out, code, w.keys, w.expected, w.table_row)
        self.attempted += attempted
        self.failed += failed
        written = 0
        if code == 0:
            with open(self.out) as fh:
                written = sum(1 for line in fh if line.strip())
        return dict(result, records=written,
                    output_bytes=os.path.getsize(self.out) if code == 0 else 0)


# ---------------------------------------------------------------------------
# measurement modes

def end_to_end(campaigns: Campaigns, seconds: float) -> dict:
    # set-up probes are spread between the campaigns, so that both sample
    # the same stretch of the host's speed
    setups, runs = [], []
    t_end = time.perf_counter() + seconds
    while not runs or time.perf_counter() < t_end:
        setups += [setup_time() for _ in range(SETUP_PROBES_PER_CAMPAIGN)]
        runs.append(campaigns.run(traced=False))
    ok = [r for r in runs if r["exit"] == 0] or runs
    values = {
        "classes_per_s": statistics.median(r["records"] / r["wall_s"] for r in ok),
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "max_rss_mb": statistics.median(r["max_rss_mb"] for r in ok),
        "setup_s": statistics.median(setups),
    }
    print(f"campaigns {len(runs)}; setup probes {len(setups)}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_metrics(path: str) -> tuple[dict, dict]:
    """Per-module metrics and the raw work counters of one traced campaign."""
    from tracer import read_spans
    header, names, parents, starts, ends = read_spans(path)
    return _layer_table(header, names, parents, starts, ends), header["counters"]


def _layer_table(header: dict, names, parents, starts, ends) -> dict:
    """{metric: (value, unit)}; self time is a span minus its child spans."""
    label = header["names"]
    n = len(starts)
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    class_ms = []
    for i in range(n):
        name = label[names[i]]
        own[name] = own.get(name, 0.0) + dur[i] - child[i]
        p = parents[i]
        while p >= 0 and label[names[p]] != name:
            p = parents[p]
        if p < 0:  # outermost span of its name: count its whole interval once
            total[name] = total.get(name, 0.0) + dur[i]
        if name == "classify":
            class_ms.append(dur[i] * 1e3)
    class_ms.sort()
    c = header["counters"]
    cnt = lambda k: c.get(k, 0)  # noqa: E731
    t = lambda k: total.get(k, 0.0)  # noqa: E731
    ratio = lambda a, b: cnt(a) / cnt(b) if cnt(b) else 0.0  # noqa: E731
    return {
        "enumerate.leaves": (cnt("enumerate.leaves"), "count"),
        "enumerate.busy_s": (t("enumerate") + t("enumerate.split"), "s"),
        "grid.subgrid_calls": (cnt("grid.subgrid_calls"), "count"),
        "grid.subgrid_s": (t("grid.subgrid"), "s"),
        "grid.connected_s": (t("grid.connected"), "s"),
        "grid.canonical_s": (t("grid.canonical"), "s"),
        "present.build_s": (t("present.build"), "s"),
        "present.simplify_calls": (cnt("present.simplify_calls"), "count"),
        "present.simplify_s": (t("present.simplify"), "s"),
        "abelian.snf_calls": (cnt("abelian.snf_calls"), "count"),
        "abelian.snf_s": (t("abelian.snf"), "s"),
        "coset.tc_calls": (cnt("coset.tc_calls"), "count"),
        "coset.tc_s": (t("coset.tc"), "s"),
        "coset.cosets_defined": (cnt("coset.cosets_defined"), "count"),
        "coset.tc_complete_ratio": (ratio("coset.tc_complete", "coset.tc_calls"), "ratio"),
        "coset.fingerprint_s": (t("coset.fingerprint"), "s"),
        "rewrite.kb_calls": (cnt("rewrite.kb_calls"), "count"),
        "rewrite.kb_s": (t("rewrite.kb"), "s"),
        "rewrite.rules": (cnt("rewrite.rules"), "count"),
        "rewrite.pairs_processed": (cnt("rewrite.pairs_processed"), "count"),
        "rewrite.discarded": (cnt("rewrite.discarded"), "count"),
        "rewrite.confluent_ratio": (ratio("rewrite.confluent", "rewrite.kb_calls"), "ratio"),
        "rewrite.reduce_calls": (cnt("rewrite.reduce_calls"), "count"),
        "rewrite.reduce_s": (t("rewrite.reduce"), "s"),
        "rewrite.language_s": (t("rewrite.language"), "s"),
        "wordprob.word_equal_calls": (cnt("wordprob.word_equal_calls"), "count"),
        "wordprob.word_equal_self_s": (own.get("wordprob.word_equal", 0.0), "s"),
        "wordprob.decided_ratio": (ratio("wordprob.decided", "wordprob.word_equal_calls"), "ratio"),
        "wordprob.hom_calls": (cnt("wordprob.hom_calls"), "count"),
        "wordprob.hom_s": (t("wordprob.hom"), "s"),
        "wordprob.hom_hit_ratio": (ratio("wordprob.hom_hits", "wordprob.hom_calls"), "ratio"),
        "smallgroups.identify_s": (t("smallgroups.identify"), "s"),
        "groupring.dfc_calls": (cnt("groupring.dfc_calls"), "count"),
        "groupring.dfc_s": (t("groupring.dfc"), "s"),
        "classify.classes": (cnt("classify.classes"), "count"),
        "classify.class_ms_p50": (_percentile(class_ms, 0.50), "ms"),
        "classify.class_ms_p99": (_percentile(class_ms, 0.99), "ms"),
        "classify.class_ms_max": (class_ms[-1] if class_ms else 0.0, "ms"),
        "classify.self_s": (own.get("classify", 0.0), "s"),
        "classify.torsion_s": (t("classify.torsion"), "s"),
        "classify.record_json_s": (t("classify.record_json"), "s"),
        "classify.degenerate": (cnt("classify.degenerate"), "count"),
        "classify.finite": (cnt("classify.finite"), "count"),
        "classify.infinite": (cnt("classify.infinite"), "count"),
        "classify.undecided": (cnt("classify.undecided"), "count"),
        "cli.parent_cpu_s": (header["parent_cpu_s"], "s"),
        "cli.worker_cpu_s": (header["worker_cpu_s"], "s"),
    }


def empty_layers() -> dict:
    """Every per-layer metric of a traced campaign, at zero."""
    empty = {"names": [], "counters": {}, "parent_cpu_s": 0.0, "worker_cpu_s": 0.0}
    return dict(_layer_table(empty, [], [], [], []), **{"cli.output_bytes": (0, "bytes")})


def per_layer(campaigns: Campaigns, seconds: float) -> tuple[dict, bool]:
    """Alternate plain and traced campaigns; medians of the traced metrics."""
    plain, traced, layers, counters = [], [], [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        plain.append(campaigns.run(traced=False))
        run = campaigns.run(traced=True)
        traced.append(run)
        if run["exit"] == 0:
            m, c = layer_metrics(campaigns.spans)
            m["cli.output_bytes"] = (run["output_bytes"], "bytes")
            layers.append(m)
            counters.append(c)
    # every work counter must repeat exactly from campaign to campaign
    repeat = all(c == counters[0] for c in counters)
    if not repeat:
        print("perfbench: work counters differ between traced campaigns", file=sys.stderr)
    if not layers:  # every traced campaign failed
        layers = [empty_layers()]
    metrics = {name: {"value": statistics.median(m[name][0] for m in layers), "unit": unit}
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain), "unit": "ratio"}
    print(f"campaigns {len(plain)} plain, {len(traced)} traced", file=sys.stderr)
    return metrics, repeat and len(layers) == len(traced)


def main() -> int:
    ap = argparse.ArgumentParser(description="gridgroups campaign benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    common.require_source()
    load_start = os.getloadavg()[0]
    work_dir = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(work_dir)
    try:
        workload = Workload(args.workload, args.seed, work_dir)
        campaigns = Campaigns(workload, work_dir)
        if args.trace:
            metrics, correct = per_layer(campaigns, args.seconds)
        else:
            metrics, correct = end_to_end(campaigns, args.seconds), True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    info = {"workload": args.workload, "seed": args.seed, "classes": len(workload.keys),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "error_rate": campaigns.failed / campaigns.attempted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate {info['error_rate']:.6g} ratio")
    print(json.dumps(info))
    print(json.dumps({"correct": correct and campaigns.failed == 0,
                      "attempted": campaigns.attempted, "failed": campaigns.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
