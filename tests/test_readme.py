"""The README's config examples, data-source table and studies agree with the code."""

import csv
import json
import os
import re

import numpy as np
import pytest

from msvdd.cli import main
from msvdd.codec import from_dict, to_dict
from msvdd.experiments import DATA_SOURCES, ExperimentConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme() -> str:
    with open(README) as fh:
        return fh.read()


def test_every_json_block_is_a_config():
    blocks = re.findall(r"```json\n([^`]*)```", readme(), re.S)
    assert blocks
    for block in blocks:
        from_dict(ExperimentConfig, json.loads(block))


def test_data_table_lists_each_key_with_its_default_and_rule():
    # rows "| `source` | `key` | default | value |", in DATA_SOURCES order
    rows = re.findall(r"^\| `(\w+)` +\| `(\w+)` +\| (.+?) +\| (.+?) +\|$", readme(), re.M)
    expected = [
        (kind, key, "required" if default is None else json.dumps(to_dict(default)), rule[2])
        for kind, keys in DATA_SOURCES.items()
        for key, (default, rule) in keys.items()
    ]
    assert rows == expected


# a study: its config block, then the command that runs it and the plotdata call
STUDY = re.compile(
    r"```json\n([^`]*)```\n\n```sh\nmsvdd (cv|gap) --config \S+\nmsvdd plotdata --results (\S+)\n```",
    re.S,
)
STUDIES = STUDY.findall(readme())


def tiny_libsvm(path):
    """100 regular points of class 1 and an anomaly pool of 30 points of class 3."""
    rng = np.random.default_rng(0)
    rows = [(1, rng.normal(size=2)) for _ in range(100)]
    rows += [(3, 4.0 * rng.normal(size=2)) for _ in range(30)]
    path.write_text("".join(f"{c} 1:{x:.4f} 2:{y:.4f}\n" for c, (x, y) in rows))
    return path


def test_each_study_plots_its_own_outputs():
    assert [command for _, command, _ in STUDIES] == ["cv", "gap", "cv"]
    for block, _, results in STUDIES:
        assert json.loads(block)["out_dir"] == results


@pytest.mark.parametrize("block, command, results", STUDIES,
                         ids=[os.path.basename(r) for _, _, r in STUDIES])
def test_study_runs_through_the_cli(tmp_path, block, command, results):
    # the study's config with one seed, one sphere and the smallest data
    config = json.loads(block)
    data = config["data"]
    if data["type"] == "libsvm":
        data.update(path=str(tiny_libsvm(tmp_path / "tiny.libsvm")), anomaly_classes=[3])
    else:
        data.update(n_train=10, n_val=20, n_test=20)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    out = str(tmp_path / "out")
    assert main([command, "--config", str(path), "--seed", "0", "--p", "1", "--out", out]) == 0
    assert main(["plotdata", "--results", out]) == 0
    with open(os.path.join(out, "resolved_config.json")) as fh:
        resolved = json.load(fh)
    assert resolved["seeds"] == [0] and resolved["p_grid"] == [1]
    # a cell too small for its C grid is infeasible; none may fail
    if command == "cv":
        with open(os.path.join(out, "cells.csv")) as fh:
            statuses = {row["status"] for row in csv.DictReader(fh)}
    else:
        with open(os.path.join(out, "gap_summary.json")) as fh:
            statuses = {cell["status"] for cell in json.load(fh)}
    assert "failed" not in statuses
