"""The golden samples under docs/samples stay exactly reproducible."""

import json
import os

from gridgroups.classify import classify_matrix, record_to_json
from gridgroups.cli import format_table_csv, format_table_text, main, summarize
from gridgroups.enumerate import format_checkpoint, parse_checkpoint, split_frontier
from gridgroups.grid import GridDims, format_matrix, parse_matrix
from gridgroups.present import format_presentation, presentation_from_matrix
from gridgroups.wordprob import Budgets

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "docs", "samples")


def sample(name):
    with open(os.path.join(SAMPLES, name)) as fh:
        return fh.read()


def test_matrix_sample():
    text = sample("matrix.txt")
    assert format_matrix(parse_matrix(text)) + "\n" == text


def test_checkpoint_sample_round_trips():
    text = sample("checkpoint.txt")
    cp = parse_checkpoint(text)
    assert format_checkpoint(cp) == text
    fresh = split_frontier(GridDims(3, 5), 5)
    assert cp.frontier == fresh.frontier
    assert cp.emitted[0] == 2


def test_presentation_sample():
    text = sample("presentation.txt")
    mat = parse_matrix(sample("matrix.txt"))
    assert format_presentation(presentation_from_matrix(mat)) == text


def test_records_sample_reproducible():
    budgets = Budgets(max_cosets=20_000, kb_max_rules=1500)
    lines = sample("records.jsonl").strip().splitlines()
    for line in lines:
        doc = json.loads(line)
        mat = parse_matrix(doc["matrix"])
        assert record_to_json(classify_matrix(mat, budgets)) == line


def test_table_samples_reproducible():
    lines = sample("records.jsonl").strip().splitlines()
    tables = summarize(lines)
    assert format_table_text(tables[(3, 3)]) == sample("table.txt")
    assert format_table_csv(tables) == sample("table.csv")


def test_lab_sample(tmp_path):
    out = tmp_path / "lab.txt"
    assert main(["lab", "2", "3", "5", "7", "--out", str(out)]) == 0
    assert out.read_text() == sample("lab.txt")
