"""Runtime contract checks: clean on the real code, loud on sabotage."""

import numpy as np
import pytest

from repro.analysis.contracts import (
    CheckedSubsetContainer,
    ContractViolation,
    run_contract_checks,
    verify_index_superset_filter,
    verify_merge_masks,
)
from repro.core.subset_index import SkylineIndex
from repro.data import generate


class TestCheckedContainer:
    def test_forwards_and_checks(self):
        values = np.array([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]])
        container = CheckedSubsetContainer(values, d=2)
        container.add(0, 0b01)
        container.add(1, 0b10)
        ids, block = container.candidates(0b01)
        assert list(ids) == [0]
        assert block.shape == (1, 2)
        assert container.queries_checked == 1
        assert len(container) == 2
        assert sorted(container.ids()) == [0, 1]

    def test_detects_overbroad_query(self, monkeypatch):
        # Sabotage the query path (``SkylineIndex.query`` backs the
        # container's candidates): return every stored point regardless of
        # mask.
        monkeypatch.setattr(SkylineIndex, "query", _everything)
        values = np.array([[0.1, 0.9], [0.9, 0.1]])
        container = CheckedSubsetContainer(values, d=2)
        container.add(0, 0b01)
        container.add(1, 0b10)
        with pytest.raises(ContractViolation, match="Lemma 5.1"):
            container.candidates(0b01)

    def test_detects_lossy_query(self, monkeypatch):
        original = SkylineIndex.query

        def lossy(self, subspace, counter=None):
            return original(self, subspace, counter)[:-1]

        monkeypatch.setattr(SkylineIndex, "query", lossy)
        values = np.array([[0.1, 0.9], [0.9, 0.1]])
        container = CheckedSubsetContainer(values, d=2)
        container.add(0, 0b01)
        with pytest.raises(ContractViolation, match="missing"):
            container.candidates(0b01)


class TestEndToEnd:
    def test_superset_filter_holds_on_seeded_data(self):
        dataset = generate("UI", n=200, d=5, seed=3)
        checked = verify_index_superset_filter(dataset)
        assert checked > 0  # the scan actually exercised the index

    def test_merge_masks_hold_on_seeded_data(self):
        for kind in ("UI", "CO", "AC"):
            verify_merge_masks(generate(kind, n=150, d=4, seed=9), sigma=2)

    def test_run_contract_checks_clean(self):
        findings = run_contract_checks(kinds=("UI",), n=80, d=4, seeds=(1,))
        assert findings == []

    def test_run_contract_checks_reports_sabotage(self, monkeypatch):
        # The boosted scans walk the index once per subspace.
        monkeypatch.setattr(
            SkylineIndex, "walk", lambda self, subspace, counter=None: np.array(
                _everything(self, subspace), dtype=np.intp
            )
        )
        findings = run_contract_checks(kinds=("UI",), n=80, d=4, seeds=(1,))
        assert findings
        assert all(f.rule == "contract" for f in findings)

    @pytest.mark.parametrize("plant", ["extra", "missing", "duplicate"])
    def test_detects_a_wrong_group_walk(self, monkeypatch, plant):
        original = SkylineIndex.walk

        def planted(self, subspace, counter=None):
            found = original(self, subspace, counter)
            if plant == "missing" and found.size:
                return found[1:]
            if plant == "duplicate" and found.size:
                return np.append(found, found[0])
            if plant == "extra":
                others = set(_everything(self, subspace)) - set(found.tolist())
                return np.append(found, sorted(others)[:1]).astype(np.intp)
            return found

        monkeypatch.setattr(SkylineIndex, "walk", planted)
        with pytest.raises(ContractViolation, match="SkylineIndex.walk"):
            verify_index_superset_filter(generate("UI", n=200, d=5, seed=3))


def _everything(index, subspace, counter=None):
    """Every stored point, whatever the subspace: an overbroad query."""
    out = []
    stack = [index._root]
    while stack:
        node = stack.pop()
        out.extend(node.points)
        stack.extend(node.children.values())
    return np.array(out, dtype=np.intp)
