import json
import os
import subprocess
import sys

import pytest

from gridgroups.cli import (_FILTERS, LEAVES_PER_TASK, _tasks, export_cas_script,
                            format_table_csv, format_table_text, main, summarize)
from gridgroups.enumerate import enumerate_pairings
from gridgroups.grid import GridDims

SAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs", "samples")


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
                     "--split-depth", "4", "--checkpoint", str(cp))
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

        def counted(pairing):
            calls.append(pairing)
            return real(pairing)

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
        # workers filter, classify and render their own runs of leaves
        serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        for class_filter in _FILTERS:
            run_cli("classify", "--rows", "3", "--cols", "5", "--out", str(serial),
                    "--max-cosets", "20000", "--filter", class_filter)
            run_cli("classify", "--rows", "3", "--cols", "5", "--out", str(parallel),
                    "--max-cosets", "20000", "--filter", class_filter, "--workers", "2")
            assert serial.read_bytes() == parallel.read_bytes(), class_filter

    def test_worker_tasks_are_bounded_runs_of_the_stream(self):
        mats = list(enumerate_pairings(GridDims(3, 5)))
        tasks = list(_tasks(mats))
        assert [mat for task in tasks for mat in task] == mats
        assert [len(task) for task in tasks[:-1]] == [LEAVES_PER_TASK] * (len(tasks) - 1)
        assert 0 < len(tasks[-1]) <= LEAVES_PER_TASK


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


class TestBudgetFlags:
    @pytest.mark.parametrize("flag", ["--max-cosets", "--kb-max-rules",
                                      "--kb-max-len", "--torsion-word-len"])
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_bad_budget_value_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--rows", "3", "--cols", "3", flag, value)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_unknown_profile_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("GRIDGROUPS_PROFILE", "fast")
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--rows", "3", "--cols", "3")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'fast'" in err and "default, quick, deep" in err

    def test_flags_override_the_profile(self):
        from gridgroups.cli import _PROFILES, _budgets_from_args, build_parser
        args = build_parser().parse_args(["classify", "--max-cosets", "1",
                                          "--kb-max-len", "7"])
        budgets = _budgets_from_args(args, _PROFILES["quick"])
        assert (budgets.max_cosets, budgets.kb_max_len) == (1, 7)
        assert budgets.kb_max_rules == _PROFILES["quick"].kb_max_rules


class TestBadInput:
    @pytest.mark.parametrize("argv, message", [
        (["classify"], "needs --from FILE or both --rows and --cols"),
        (["classify", "--rows", "3"], "needs --from FILE or both --rows and --cols"),
        (["classify", "--rows", "3", "--cols", "5", "--workers", "-2"], "--workers"),
        (["classify", "--from", os.path.join(SAMPLES, "matrix.txt"), "--workers", "2"],
         "does not apply to --from"),
    ])
    def test_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--rows", "4", "--cols", "5"], "need odd row/column counts"),
        (["enumerate", "--rows", "3", "--cols", "5", "--split-depth", "15"],
         "split depth 15 out of range 0..14"),
        (["classify", "--from", "no-such-file.txt"], "No such file"),
        (["resume", "no-such-checkpoint.txt"], "No such file"),
        (["classify", "--from", os.path.join(SAMPLES, "records.jsonl")],
         "records.jsonl line 1: not a matrix line"),
    ])
    def test_bad_input_is_one_line(self, argv, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path / "out.txt"))
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
