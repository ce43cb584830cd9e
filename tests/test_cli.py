import json
import os
import signal
import subprocess
import sys
import time

import pytest

from gridgroups.cli import (_FILTERS, LEAVES_PER_TASK, export_cas_script,
                            format_table_csv, format_table_text, main, summarize)
from gridgroups.enumerate import enumerate_pairings
from gridgroups.grid import GridDims, format_matrix
from gridgroups.wordprob import Budgets

SAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs", "samples")
DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(*args):
    return main(list(args))


class TestEnumerateCommand:
    def test_stream_matches_library(self, tmp_path, capsys):
        out = tmp_path / "mats.txt"
        assert run_cli("enumerate", "--rows", "3", "--cols", "3",
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "x 1 2 / 1 3 4 / 2 4 3"

    def test_budget_writes_checkpoint(self, tmp_path):
        out = tmp_path / "mats.txt"
        cp = tmp_path / "cp.txt"
        rc = run_cli("enumerate", "--rows", "3", "--cols", "5",
                     "--out", str(out), "--max-nodes", "40",
                     "--checkpoint", str(cp))
        assert rc == 3
        assert cp.exists()
        emitted = len(out.read_text().strip().splitlines())
        rc = run_cli("resume", str(cp), "--out", str(tmp_path / "rest.txt"))
        assert rc == 0
        rest = len((tmp_path / "rest.txt").read_text().strip().splitlines())
        assert emitted + rest == 76


class TestClassifyCommand:
    def test_pipeline_composition(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        assert run_cli("classify", "--rows", "3", "--cols", "3",
                       "--out", str(rec), "--max-cosets", "20000") == 0
        lines = rec.read_text().strip().splitlines()
        assert len(lines) == 3
        tab = summarize(lines)[(3, 3)]
        assert tab.total == 3 and tab.degenerate == 0
        assert tab.finite_total == 2 and tab.infinite_abelian == 1

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            run_cli("classify", "--rows", "3", "--cols", "5",
                    "--out", str(path), "--max-cosets", "20000")
        assert a.read_bytes() == b.read_bytes()

    def test_composition_equals_single_pass(self, tmp_path):
        mats = tmp_path / "mats.txt"
        run_cli("enumerate", "--rows", "3", "--cols", "5", "--out", str(mats))
        staged = tmp_path / "staged.jsonl"
        run_cli("classify", "--from", str(mats), "--out", str(staged),
                "--max-cosets", "20000")
        direct = tmp_path / "direct.jsonl"
        run_cli("classify", "--rows", "3", "--cols", "5", "--out", str(direct),
                "--max-cosets", "20000")
        assert staged.read_bytes() == direct.read_bytes()

    def test_filter_restricts_campaign(self, tmp_path):
        rec = tmp_path / "f.jsonl"
        run_cli("classify", "--rows", "3", "--cols", "5", "--out", str(rec),
                "--max-cosets", "20000", "--filter", "connected")
        docs = [json.loads(l) for l in rec.read_text().splitlines()]
        assert docs and all(d["flags"]["row_connected"]
                            and d["flags"]["column_connected"] for d in docs)
        full = tmp_path / "full.jsonl"
        run_cli("classify", "--rows", "3", "--cols", "5", "--out", str(full),
                "--max-cosets", "20000")
        assert len(docs) < len(full.read_text().splitlines())

    def test_filter_flags_are_computed_once(self, tmp_path, monkeypatch):
        from gridgroups import classify
        real = classify.proper_invariant_subgrids
        calls = []

        def counted(mat):
            calls.append(mat)
            return real(mat)

        monkeypatch.setattr(classify, "proper_invariant_subgrids", counted)
        mats = tmp_path / "mats.txt"
        run_cli("enumerate", "--rows", "3", "--cols", "5", "--out", str(mats))
        for source in (["--rows", "3", "--cols", "5"], ["--from", str(mats)]):
            calls.clear()
            rec = tmp_path / "f.jsonl"
            run_cli("classify", *source, "--out", str(rec),
                    "--max-cosets", "20000", "--filter", "subgrid-free")
            assert len(calls) == 76  # one per class filtered
            docs = [json.loads(l) for l in rec.read_text().splitlines()]
            assert len(docs) == 73
            assert all(d["flags"]["no_proper_invariant_subgrid"] for d in docs)

    def test_worker_stream_matches_serial(self, tmp_path):
        # workers filter, classify and render their own runs of leaves, of
        # the search or of a saved enumeration
        mats = tmp_path / "mats.txt"
        run_cli("enumerate", "--rows", "3", "--cols", "5", "--out", str(mats))
        serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        for source in (["--rows", "3", "--cols", "5"], ["--from", str(mats)]):
            for class_filter in _FILTERS:
                run_cli("classify", *source, "--out", str(serial),
                        "--max-cosets", "20000", "--filter", class_filter)
                run_cli("classify", *source, "--out", str(parallel),
                        "--max-cosets", "20000", "--filter", class_filter, "--workers", "2")
                assert serial.read_bytes() == parallel.read_bytes(), (source, class_filter)

    def test_worker_tasks_are_bounded_runs_of_the_stream(self, tmp_path, monkeypatch):
        import multiprocessing.pool
        real, chunksizes, replies = multiprocessing.pool.Pool.imap, [], []

        def imap(pool, func, iterable, chunksize=1):
            chunksizes.append(chunksize)
            for reply in real(pool, func, iterable, chunksize):
                replies.append(reply)
                yield reply

        monkeypatch.setattr(multiprocessing.pool.Pool, "imap", imap)
        out = tmp_path / "r35.jsonl"
        run_cli("classify", "--rows", "3", "--cols", "5", "--workers", "2",
                "--out", str(out), "--max-cosets", "20000")
        assert chunksizes == [LEAVES_PER_TASK]
        mats = list(enumerate_pairings(GridDims(3, 5)))
        assert len(replies) == len(mats) > LEAVES_PER_TASK
        assert all(reply.count("\n") == 1 and reply.endswith("\n") for reply in replies)
        assert "".join(replies) == out.read_text()
        assert [json.loads(reply)["matrix"] for reply in replies] == [format_matrix(m) for m in mats]


class TestResumeCommand:
    def test_two_resumes_write_the_records_of_one(self, tmp_path, monkeypatch):
        from gridgroups import cli
        from gridgroups.enumerate import read_checkpoint, split_frontier, write_checkpoint
        for name in ("whole.txt", "parts.txt"):
            write_checkpoint(split_frontier(GridDims(3, 5), 4), tmp_path / name)
        whole = tmp_path / "whole.jsonl"
        assert run_cli("resume", str(tmp_path / "whole.txt"), "--classify",
                       "--out", str(whole), "--max-cosets", "20000") == 0

        parts = tmp_path / "parts.jsonl"
        stop_at = [10]

        def checkpoint_then_stop(cp, path):
            # every record the checkpoint counts is already in the file
            assert len(parts.read_text().splitlines()) == sum(cp.emitted)
            write_checkpoint(cp, path)
            if sum(cp.emitted) == stop_at[0]:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "write_checkpoint", checkpoint_then_stop)
        with pytest.raises(KeyboardInterrupt):
            run_cli("resume", str(tmp_path / "parts.txt"), "--classify",
                    "--out", str(parts), "--max-cosets", "20000")
        assert sum(read_checkpoint(tmp_path / "parts.txt").emitted) == 10
        assert len(parts.read_text().splitlines()) == 10
        stop_at[0] = None
        assert run_cli("resume", str(tmp_path / "parts.txt"), "--classify",
                       "--out", str(parts), "--max-cosets", "20000") == 0
        assert parts.read_bytes() == whole.read_bytes()
        assert len(whole.read_text().splitlines()) == 76

    def test_resumed_to_the_end_every_item_is_done(self, tmp_path):
        import shutil
        # a budgeted 3x5 run splits into 4 items, the last of which has no
        # leaf; the sample checkpoint's last item has leaves
        split = tmp_path / "split.txt"
        head = tmp_path / "split.out"
        assert run_cli("enumerate", "--rows", "3", "--cols", "5", "--max-nodes", "20",
                       "--checkpoint", str(split), "--out", str(head)) == 3
        sample = tmp_path / "sample.txt"
        shutil.copy(os.path.join(SAMPLES, "checkpoint.txt"), sample)
        for cp in (split, sample):
            out = tmp_path / (cp.stem + ".resumed")
            assert run_cli("resume", str(cp), "--out", str(out)) == 0
            items = [line for line in cp.read_text().splitlines() if line.startswith("item ")]
            assert items and not [line for line in items if line.endswith(" done 0")]
            written, saved = out.read_bytes(), cp.read_bytes()
            assert run_cli("resume", str(cp), "--out", str(out)) == 0
            assert (out.read_bytes(), cp.read_bytes()) == (written, saved)
        whole = "".join(format_matrix(m).replace("\n", " / ") + "\n"
                        for m in enumerate_pairings(GridDims(3, 5)))
        assert head.read_text() + (tmp_path / "split.resumed").read_text() == whole


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# `resume` in a process that kills itself with SIGKILL at the given call of
# write_checkpoint, after the output was flushed and before the checkpoint
# is written: the window that once left a record the checkpoint did not count
KILLED_AT_CHECKPOINT = """
import os, signal, sys
from gridgroups import cli
real, calls, kill_at = cli.write_checkpoint, [0], int(sys.argv[1])
def write_checkpoint(cp, path):
    calls[0] += 1
    if calls[0] == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    real(cp, path)
cli.write_checkpoint = write_checkpoint
sys.exit(cli.main(sys.argv[2:]))
"""


def resume_process(*args, kill_at=None):
    cmd = [sys.executable, "-m", "gridgroups.cli"] if kill_at is None \
        else [sys.executable, "-c", KILLED_AT_CHECKPOINT, str(kill_at)]
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(cmd + ["resume", *args, "--classify", "--max-cosets", "20000"],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def assert_exit(proc, code):
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == code, err


class TestKilledResume:
    """A resume killed with SIGKILL anywhere, and resumed, leaves exactly
    the bytes of an uninterrupted run."""

    @staticmethod
    def checkpoints(tmp_path, cols, depth):
        from gridgroups.enumerate import split_frontier, write_checkpoint
        for name in ("whole.txt", "parts.txt"):
            write_checkpoint(split_frontier(GridDims(3, cols), depth), tmp_path / name)
        whole = tmp_path / "whole.jsonl"
        assert run_cli("resume", str(tmp_path / "whole.txt"), "--classify",
                       "--out", str(whole), "--max-cosets", "20000") == 0
        return str(tmp_path / "parts.txt"), tmp_path / "parts.jsonl", whole.read_bytes()

    def test_killed_between_the_flush_and_the_checkpoint(self, tmp_path):
        cp, parts, whole = self.checkpoints(tmp_path, 5, 4)
        # the first write precedes every line; the other kills leave one
        # line that the checkpoint does not count
        for kill_at in (1, 2, 30, 3):
            assert_exit(resume_process(cp, "--out", str(parts), kill_at=kill_at),
                        -signal.SIGKILL)
        from gridgroups.enumerate import read_checkpoint
        assert read_checkpoint(cp).output_bytes < len(parts.read_bytes())
        assert_exit(resume_process(cp, "--out", str(parts)), 0)
        assert parts.read_bytes() == whole

    def test_killed_from_outside(self, tmp_path):
        cp, parts, whole = self.checkpoints(tmp_path, 7, 4)
        proc = resume_process(cp, "--out", str(parts))
        deadline = time.monotonic() + 120
        while proc.poll() is None and time.monotonic() < deadline \
                and (not parts.exists() or parts.stat().st_size < 200_000):
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        assert_exit(proc, -signal.SIGKILL)
        assert 0 < len(parts.read_bytes()) < len(whole)
        assert_exit(resume_process(cp, "--out", str(parts)), 0)
        assert parts.read_bytes() == whole

    def test_a_shorter_output_is_bad_input(self, tmp_path, capsys):
        cp, parts, whole = self.checkpoints(tmp_path, 5, 4)
        assert_exit(resume_process(cp, "--out", str(parts), kill_at=20), -signal.SIGKILL)
        parts.write_bytes(parts.read_bytes()[:100])
        with pytest.raises(SystemExit) as exc:
            run_cli("resume", cp, "--classify", "--out", str(parts))
        assert exc.value.code == 1
        assert "not the output it was resumed into" in capsys.readouterr().err


class TestBudgetFlags:
    @pytest.mark.parametrize("flag", ["--max-cosets", "--kb-max-rules",
                                      "--kb-max-len", "--torsion-word-len"])
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_bad_budget_value_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--rows", "3", "--cols", "3", flag, value)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_flags_override_the_profile(self):
        """The budget flags given override the default Budgets(); the
        others keep their defaults."""
        from gridgroups.cli import _budgets_from_args, build_parser
        args = build_parser().parse_args(["classify", "--max-cosets", "1",
                                          "--kb-max-len", "7"])
        assert _budgets_from_args(args) == Budgets(max_cosets=1, kb_max_len=7)
        assert _budgets_from_args(build_parser().parse_args(["classify"])) == Budgets()


class TestBadInput:
    @pytest.mark.parametrize("argv, message", [
        (["classify"], "needs --from FILE or both --rows and --cols"),
        (["classify", "--rows", "3"], "needs --from FILE or both --rows and --cols"),
        (["classify", "--rows", "3", "--cols", "5", "--workers", "-2"], "--workers"),
        (["enumerate", "--rows", "3", "--cols", "5", "--split-depth", "4"],
         "unrecognized arguments: --split-depth 4"),
        (["lab", "4"], "4 is not prime"),
        (["lab", "0"], "must be a positive integer, got 0"),
        (["lab", "-3"], "must be a positive integer, got -3"),
        (["enumerate", "--rows", "3", "--cols", "3", "--max-nodes", "0"], "--max-nodes"),
        (["enumerate", "--rows", "3", "--cols", "3", "--max-nodes", "-5"], "--max-nodes"),
        (["classify", "--from", os.path.join(SAMPLES, "matrix.txt"),
          "--rows", "3", "--cols", "5"], "do not apply to --from"),
        (["classify", "--from", os.path.join(SAMPLES, "matrix.txt"), "--cols", "3"],
         "do not apply to --from"),
    ])
    def test_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--rows", "4", "--cols", "5"], "need odd row/column counts"),
        (["classify", "--from", os.path.join(SAMPLES, "records.jsonl"), "--workers", "2"],
         "records.jsonl line 1: not a matrix line"),
        (["classify", "--from", "no-such-file.txt"], "No such file"),
        (["resume", "no-such-checkpoint.txt"], "No such file"),
        (["classify", "--from", os.path.join(SAMPLES, "records.jsonl")],
         "records.jsonl line 1: not a matrix line"),
        (["table", "no-such-records.jsonl"], "No such file"),
        (["table", os.path.join(SAMPLES, "matrix.txt")],
         "matrix.txt line 1: not a JSON record"),
        (["export-gap", "no-such-records.jsonl"], "No such file"),
        (["export-gap", os.path.join(SAMPLES, "matrix.txt")],
         "matrix.txt line 1: not a JSON record"),
        (["table", os.path.join(DATA, "dims-only.jsonl")],
         "dims-only.jsonl line 1: not a classification record"),
        (["table", os.path.join(DATA, "list.jsonl")],
         "list.jsonl line 1: not a classification record"),
        (["export-gap", os.path.join(DATA, "dims-only.jsonl")],
         "dims-only.jsonl line 1: not a classification record"),
        (["export-gap", os.path.join(DATA, "list.jsonl")],
         "list.jsonl line 1: not a classification record"),
        (["table", os.path.join(DATA, "finite-without-order.jsonl")],
         "finite-without-order.jsonl line 1: not a classification record (a finite "
         "verdict needs order and fingerprint.derived_order)"),
        (["table", os.path.join(DATA, "scalar-dims.jsonl")],
         "scalar-dims.jsonl line 1: not a classification record (dims must be two "
         "integers, got 3)"),
        (["export-gap", os.path.join(DATA, "short-matrix.jsonl")],
         "short-matrix.jsonl line 1: not a matrix"),
        (["resume", os.path.join(DATA, "negative-emitted.ckpt"), "--classify"],
         "negative emitted count"),
        (["resume", os.path.join(DATA, "done-7.ckpt")], "done must be 0 or 1, got 7"),
        (["resume", os.path.join(DATA, "even-dims.ckpt")],
         "full pairings need odd row/column counts, got 2x2"),
        (["resume", os.path.join(DATA, "duplicate-item.ckpt")],
         "frontier items are not in strictly increasing order"),
    ])
    def test_bad_input_is_one_line(self, argv, message, tmp_path, capsys):
        out_flag = "--outdir" if argv[0] == "export-gap" else "--out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, out_flag, str(tmp_path / "out.txt"))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


class TestTableCommand:
    def test_text_and_csv(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        run_cli("classify", "--rows", "3", "--cols", "3", "--out", str(rec),
                "--max-cosets", "20000")
        out = tmp_path / "t.txt"
        run_cli("table", str(rec), "--out", str(out))
        text = out.read_text()
        assert "classes enumerated:    3" in text
        csv = tmp_path / "t.csv"
        run_cli("table", str(rec), "--out", str(csv), "--csv")
        rows = csv.read_text().strip().splitlines()
        assert rows[0].startswith("rows,cols,total")
        assert rows[1].startswith("3,3,3,0,3,2")

    def test_empty_record_file(self, tmp_path):
        rec = tmp_path / "empty.jsonl"
        rec.write_text("")
        out = tmp_path / "t.csv"
        assert run_cli("table", str(rec), "--out", str(out), "--csv") == 0
        assert out.read_text().strip().splitlines()[0].startswith("rows,cols")


class TestLabCommand:
    def test_report_mentions_case_split(self, tmp_path):
        out = tmp_path / "lab.txt"
        assert run_cli("lab", "2", "3", "5", "--out", str(out)) == 0
        text = out.read_text()
        assert "characteristic 2" in text
        assert "skip" in text          # branch skipped in characteristics 2 and 3
        assert text.count("fail") == 0
        assert "inverse (3, 1)" in text

    def test_prime_seven_runs_both_branches(self, tmp_path):
        out = tmp_path / "lab7.txt"
        run_cli("lab", "7", "--out", str(out))
        text = out.read_text()
        assert "S3" in text and "Dih4" in text and "skip" not in text


class TestExportCommand:
    def test_scripts_written_per_class(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        run_cli("classify", "--rows", "3", "--cols", "3", "--out", str(rec),
                "--max-cosets", "20000")
        outdir = tmp_path / "gap"
        assert run_cli("export-gap", str(rec), "--outdir", str(outdir)) == 0
        files = sorted(os.listdir(outdir))
        assert len(files) == 3
        first = (outdir / files[0]).read_text()
        assert "FreeGroup" in first and "g := f / rels;;" in first

    def test_finite_class_script_queries_the_order(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        run_cli("classify", "--rows", "3", "--cols", "3", "--out", str(rec),
                "--max-cosets", "20000")
        docs = [json.loads(l) for l in rec.read_text().splitlines()]
        z5 = next(d for d in docs if d["verdict"].get("order") == 5)
        script = export_cas_script(z5)
        assert "Size(g)" in script and "expected 5" in script

    def test_undecided_class_marked_for_manual_analysis(self):
        doc = {"dims": [3, 3], "matrix": "x 1 2\n1 3 4\n2 4 3",
               "verdict": {"kind": "undecided", "evidence": "budgets"}}
        script = export_cas_script(doc)
        assert "manual analysis" in script

    def test_empty_record_set_succeeds(self, tmp_path):
        rec = tmp_path / "empty.jsonl"
        rec.write_text("")
        outdir = tmp_path / "gap"
        assert run_cli("export-gap", str(rec), "--outdir", str(outdir)) == 0
        assert os.listdir(outdir) == []


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "gridgroups.cli",
                               "enumerate", "--rows", "3", "--cols", "3"],
                              capture_output=True, text=True,
                              cwd=os.path.dirname(os.path.dirname(__file__)))
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 3


class TestClosedPipe:
    @pytest.mark.parametrize("command", ["enumerate", "classify"])
    def test_reader_closing_early_gives_no_traceback(self, command):
        """`gridgroups ... | head -1`: the command stops quietly, with a
        nonzero status, once its reader has gone."""
        proc = subprocess.Popen([sys.executable, "-m", "gridgroups.cli", command,
                                 "--rows", "3", "--cols", "7"],
                                env=dict(os.environ, PYTHONPATH=SRC),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) != 0
        assert err == b""
