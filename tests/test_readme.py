"""The README's config examples and data-source table agree with the code."""

import json
import os
import re

from msvdd.codec import from_dict, to_dict
from msvdd.experiments import DATA_SOURCES, ExperimentConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme() -> str:
    with open(README) as fh:
        return fh.read()


def test_every_json_block_is_a_config():
    blocks = re.findall(r"```json\n(.*?)```", readme(), re.S)
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
