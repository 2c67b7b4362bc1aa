from __future__ import annotations

import pytest

from hibinccr import TypeParams, corpus_path, expected_weight_table, parse_poset


def load_corpus(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


def table(tag, params):
    """The weight table of a family member, read as given."""
    return expected_weight_table(TypeParams(tag, params, "as-given"))


@pytest.fixture
def running_example():
    return parse_poset(load_corpus("running_example.poset"))


EXAMPLE_TREE_HINT = [1, 2, 3, 4, 5, 6]  # edges e2..e7
