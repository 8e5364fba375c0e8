"""Acceptance gate: every criterion of the battery must hold at its stated
tolerance, and the command-line suite must be deterministic.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import json

import pytest

from blocklab.cli import EXIT_OK, main
from blocklab.suite import _composition_corpus, _obeys_law, check_composition_laws, run_battery

SEED = 42
BUDGETED = {1, 2, 3, 5, 6, 7, 8, 9}


@pytest.fixture(scope="module")
def battery():
    return {o.cid: o for o in run_battery(SEED)}


@pytest.mark.parametrize("cid", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_criterion(battery, cid):
    outcome = battery[cid]
    status = "PASS" if outcome.passed else "FAIL"
    print(f"criterion {cid:2d} [{status}] {outcome.title}: "
          f"{json.dumps(outcome.details, sort_keys=True)}")
    assert outcome.passed, outcome.details
    budget = outcome.budget_s
    if budget is not None:
        assert outcome.runtime_s < budget, (
            f"criterion {cid} took {outcome.runtime_s:.2f}s, budget {budget}s"
        )


def test_criterion_4_counts_distinct_composites(battery):
    # a centering encoding is one leaf, so it adds no composite of its own
    assert battery[4].details["compositions"] == 574


def test_budgeted_criteria(battery):
    assert {cid for cid, o in battery.items() if o.budget_s is not None} == BUDGETED


def _first_node(trees, kind):
    stack = list(trees)
    while stack:
        be = stack.pop()
        if be.kind == kind:
            return be
        stack.extend(be.children)
    raise LookupError(kind)


@pytest.mark.parametrize("field", ["alpha", "ancillas", "epsilon"])
@pytest.mark.parametrize("kind", ["product", "difference", "adjoint", "dilation", "gram"])
def test_criterion_4_counts_a_broken_law(kind, field):
    trees = _composition_corpus(SEED)
    assert check_composition_laws(trees)[1] == 0
    node = _first_node(trees, kind)
    broken = {"alpha": node.alpha / 2, "ancillas": node.ancillas + 1,
              "epsilon": node.epsilon + 1.0}[field]
    object.__setattr__(node, field, broken)
    assert not _obeys_law(node)
    assert check_composition_laws(trees)[1] >= 1


def test_criterion_11_cli_determinism(tmp_path):
    out1 = tmp_path / "suite1.json"
    out2 = tmp_path / "suite2.json"
    assert main(["suite", "--seed", str(SEED), "--out", str(out1)]) == EXIT_OK
    assert main(["suite", "--seed", str(SEED), "--out", str(out2)]) == EXIT_OK
    doc1 = json.load(open(out1))
    doc2 = json.load(open(out2))
    doc1.pop("timing")
    doc2.pop("timing")
    identical = json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    status = "PASS" if identical else "FAIL"
    print(f"criterion 11 [{status}] command-line suite determinism")
    assert identical
    assert doc1["suite"]["all_pass"] is True
