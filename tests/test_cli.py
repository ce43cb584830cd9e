import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields

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
        from gridgroups.enumerate import (SearchCheckpoint, read_checkpoint, resume,
                                          split_frontier, write_checkpoint)
        split = split_frontier(GridDims(3, 5), 7)
        for name in ("whole.txt", "parts.txt"):
            write_checkpoint(split, tmp_path / name)
        whole = tmp_path / "whole.jsonl"
        assert run_cli("resume", str(tmp_path / "whole.txt"), "--classify",
                       "--out", str(whole), "--max-cosets", "20000") == 0

        # the leaves before a position: those of the items it has finished,
        # and its leaves of the next
        sizes = [len(list(resume(SearchCheckpoint(split.dims, 7, [item]))))
                 for item in split.frontier]

        def counted(cp):
            return sum(sizes[:cp.item]) + cp.leaves

        parts = tmp_path / "parts.jsonl"
        stop_at = [10]

        def checkpoint_then_stop(cp, path):
            # every record the checkpoint counts is already in the file
            assert len(parts.read_text().splitlines()) == counted(cp)
            assert len(parts.read_bytes()) == cp.output_bytes
            write_checkpoint(cp, path)
            if counted(cp) == stop_at[0]:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "CHECKPOINT_SECONDS", 0)
        monkeypatch.setattr(cli, "write_checkpoint", checkpoint_then_stop)
        with pytest.raises(KeyboardInterrupt):
            run_cli("resume", str(tmp_path / "parts.txt"), "--classify",
                    "--out", str(parts), "--max-cosets", "20000")
        assert counted(read_checkpoint(tmp_path / "parts.txt")) == 10
        assert len(parts.read_text().splitlines()) == 10
        stop_at[0] = None
        assert run_cli("resume", str(tmp_path / "parts.txt"), "--classify",
                       "--out", str(parts), "--max-cosets", "20000") == 0
        assert parts.read_bytes() == whole.read_bytes()
        assert len(whole.read_text().splitlines()) == 76

    def test_checkpoint_written_at_most_once_a_second(self, tmp_path, monkeypatch):
        """Besides the writes before the first line and after the last, a
        resume into a file writes its checkpoint at most once a second."""
        from gridgroups import cli
        from gridgroups.enumerate import split_frontier, write_checkpoint
        cp = tmp_path / "cp.txt"
        write_checkpoint(split_frontier(GridDims(3, 7), 10), cp)
        writes = []

        def counted_write(checkpoint, path):
            writes.append(path)
            write_checkpoint(checkpoint, path)

        monkeypatch.setattr(cli, "write_checkpoint", counted_write)
        out = tmp_path / "records.jsonl"
        start = time.monotonic()
        assert run_cli("resume", str(cp), "--classify", "--out", str(out),
                       "--max-cosets", "20000", "--kb-max-rules", "1500") == 0
        elapsed = time.monotonic() - start
        assert len(out.read_text().splitlines()) == 3403
        assert 2 <= len(writes) <= 2 + elapsed

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
            assert items and f"\nposition {len(items)} 0\n" in cp.read_text()
            written, saved = out.read_bytes(), cp.read_bytes()
            assert run_cli("resume", str(cp), "--out", str(out)) == 0
            assert (out.read_bytes(), cp.read_bytes()) == (written, saved)
        whole = "".join(format_matrix(m).replace("\n", " / ") + "\n"
                        for m in enumerate_pairings(GridDims(3, 5)))
        assert head.read_text() + (tmp_path / "split.resumed").read_text() == whole


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

def resume_process(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-m", "gridgroups.cli", "resume", *args,
                             "--classify", "--max-cosets", "20000"],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def assert_exit(proc, code):
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == code, err


def killed_at_checkpoint(kill_at, *args):
    """How `resume *args --classify` ends in a forked process that writes
    its checkpoint after every line and kills itself with SIGKILL at the
    given call of write_checkpoint, after the output was flushed and before
    the checkpoint is written: the window that once left a record the
    checkpoint did not count.  Minus the signal number when killed, else
    the exit status."""
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            from gridgroups import cli
            real, calls = cli.write_checkpoint, [0]

            def write_checkpoint(cp, path):
                calls[0] += 1
                if calls[0] == kill_at:
                    os.kill(os.getpid(), signal.SIGKILL)
                real(cp, path)

            cli.CHECKPOINT_SECONDS = 0
            cli.write_checkpoint = write_checkpoint
            status = main(["resume", *args, "--classify", "--max-cosets", "20000"])
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    return -os.WTERMSIG(status) if os.WIFSIGNALED(status) else os.WEXITSTATUS(status)


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
        from gridgroups.enumerate import read_checkpoint
        cp, parts, whole = self.checkpoints(tmp_path, 5, 4)
        # the first run dies at the write before every line.  Each later run
        # writes one line and its checkpoint, then dies at its second write,
        # with one line that the checkpoint does not count, or at the write
        # that ends the stream: so some run dies at each write of the
        # uninterrupted resume, the first, one after each line and the last
        assert killed_at_checkpoint(1, cp, "--out", str(parts)) == -signal.SIGKILL
        uncounted = []
        while (status := killed_at_checkpoint(2, cp, "--out", str(parts))) == -signal.SIGKILL:
            uncounted.append(len(parts.read_bytes()) - read_checkpoint(cp).output_bytes)
        assert status == 0
        assert 1 + len(uncounted) == whole.count(b"\n") + 2
        assert min(uncounted[:-1]) > 0 and uncounted[-1] == 0
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
        assert killed_at_checkpoint(20, cp, "--out", str(parts)) == -signal.SIGKILL
        parts.write_bytes(parts.read_bytes()[:100])
        with pytest.raises(SystemExit) as exc:
            run_cli("resume", cp, "--classify", "--out", str(parts))
        assert exc.value.code == 1
        assert "not the output it was resumed into" in capsys.readouterr().err


class TestBudgetFlags:
    # the last two flags are no budgets any more, so any value of them is a
    # usage error naming the flag
    @pytest.mark.parametrize("flag", ["--max-cosets", "--kb-max-rules",
                                      "--kb-max-len", "--torsion-word-len"])
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_bad_budget_value_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--rows", "3", "--cols", "3", flag, value)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_flags_override_the_defaults(self):
        """Budgets holds the two budgets, and each flag given overrides its
        default in Budgets(); the other keeps its default."""
        from gridgroups.cli import _budgets_from_args, build_parser
        assert [f.name for f in fields(Budgets)] == ["max_cosets", "kb_max_rules"]
        for argv, budgets in ((["--max-cosets", "1"], Budgets(max_cosets=1)),
                              (["--kb-max-rules", "7"], Budgets(kb_max_rules=7)),
                              ([], Budgets())):
            args = build_parser().parse_args(["classify", *argv])
            assert _budgets_from_args(args) == budgets


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
        (["enumerate", "--rows", "3", "--cols", "3", "--checkpoint", "cp.txt"],
         "--checkpoint needs --max-nodes"),
        (["classify", "--rows", "3", "--cols", "3", "--kb-max-len", "7"],
         "unrecognized arguments: --kb-max-len 7"),
        (["resume", "cp.txt", "--classify", "--torsion-word-len", "2"],
         "unrecognized arguments: --torsion-word-len 2"),
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
        (["resume", os.path.join(DATA, "negative-leaves.ckpt"), "--classify"],
         "position 0 -1 is outside the 1 frontier items"),
        (["resume", os.path.join(DATA, "past-the-frontier.ckpt")],
         "position 2 0 is outside the 1 frontier items"),
        (["resume", os.path.join(DATA, "even-dims.ckpt")],
         "full pairings need odd row/column counts, got 2x2"),
        (["resume", os.path.join(DATA, "duplicate-item.ckpt")],
         "frontier items are not in strictly increasing order"),
        (["resume", os.path.join(DATA, "version-1.ckpt")],
         "gridgroups-checkpoint v1 is an old checkpoint format; "
         "only gridgroups-checkpoint v3 is read"),
        # bytes that are not UTF-8 text: an executable's header, and a good
        # matrix line followed by a Latin-1 one
        (["classify", "--from", os.path.join(DATA, "elf-head.bin")],
         "elf-head.bin: not UTF-8 text"),
        (["classify", "--from", os.path.join(DATA, "latin-1-line.txt")],
         "latin-1-line.txt: not UTF-8 text"),
        (["classify", "--from", os.path.join(DATA, "latin-1-line.txt"), "--workers", "2"],
         "latin-1-line.txt: not UTF-8 text"),
        (["table", os.path.join(DATA, "elf-head.bin")], "elf-head.bin: not UTF-8 text"),
        (["table", os.path.join(DATA, "latin-1-line.txt")],
         "latin-1-line.txt: not UTF-8 text"),
        (["export-gap", os.path.join(DATA, "elf-head.bin")], "elf-head.bin: not UTF-8 text"),
        (["export-gap", os.path.join(DATA, "latin-1-line.txt")],
         "latin-1-line.txt: not UTF-8 text"),
        (["resume", os.path.join(DATA, "elf-head.bin")], "elf-head.bin: not UTF-8 text"),
        (["resume", os.path.join(DATA, "latin-1-line.txt")],
         "latin-1-line.txt: not UTF-8 text"),
        # an output directory that cannot be made
        (["export-gap", os.path.join(SAMPLES, "records.jsonl"),
          "--outdir", os.path.join(SAMPLES, "matrix.txt")], "File exists"),
        (["export-gap", os.path.join(SAMPLES, "records.jsonl"),
          "--outdir", os.path.join(SAMPLES, "matrix.txt", "scripts")], "Not a directory"),
        (["export-gap", os.path.join(SAMPLES, "records.jsonl"), "--outdir", ""],
         "No such file or directory"),
    ])
    def test_bad_input_is_one_line(self, argv, message, tmp_path, capsys):
        """One line and exit 1; export-gap makes its --outdir only once a
        script is ready, so records it cannot read leave no directory."""
        out_flag = "--outdir" if argv[0] == "export-gap" else "--out"
        out = tmp_path / "out.txt"
        if out_flag not in argv:
            argv = [*argv, out_flag, str(out)]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        if argv[0] == "export-gap":
            assert not out.exists()

    def test_checkpoint_naming_a_directory_is_one_line(self, tmp_path, capsys):
        """A --checkpoint that names a directory is reported before the
        search: no output is written and no temporary file is left."""
        (tmp_path / "checkpoints").mkdir()
        with pytest.raises(SystemExit) as exc:
            run_cli("enumerate", "--rows", "3", "--cols", "5", "--max-nodes", "3",
                    "--checkpoint", str(tmp_path / "checkpoints"),
                    "--out", str(tmp_path / "out.txt"))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "checkpoints: is a directory" in err
        assert os.listdir(tmp_path) == ["checkpoints"]
        assert os.listdir(tmp_path / "checkpoints") == []

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--rows", "3", "--cols", "5", "--out", "{bad}"],
        ["enumerate", "--rows", "3", "--cols", "5", "--max-nodes", "10",
         "--checkpoint", "{bad}", "--out", "{out}"],
        ["classify", "--rows", "3", "--cols", "3", "--out", "{bad}"],
        ["resume", "{checkpoint}", "--out", "{bad}"],
        ["table", os.path.join(SAMPLES, "records.jsonl"), "--out", "{bad}"],
    ], ids=["enumerate", "enumerate-checkpoint", "classify", "resume", "table"])
    def test_unwritable_output_is_one_line(self, argv, tmp_path, capsys):
        """An output path in a directory that does not exist is bad input,
        found before any work: no output is written and the checkpoint
        stays as it was."""
        import shutil
        checkpoint = tmp_path / "checkpoint.txt"
        shutil.copy(os.path.join(SAMPLES, "checkpoint.txt"), checkpoint)
        bad = tmp_path / "no-such-directory" / "out.txt"
        paths = {"{bad}": str(bad), "{out}": str(tmp_path / "out.txt"),
                 "{checkpoint}": str(checkpoint)}
        with pytest.raises(SystemExit) as exc:
            run_cli(*[paths.get(arg, arg) for arg in argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No such file or directory" in err
        assert sorted(os.listdir(tmp_path)) == ["checkpoint.txt"]
        assert checkpoint.read_text() == open(os.path.join(SAMPLES, "checkpoint.txt")).read()


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
