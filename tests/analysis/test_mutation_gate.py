"""Seeded mutation tests: the gate must go loud when the invariants break.

These are the acceptance-criterion mutations for the analysis subsystem:

1. breaking the superset filter behind ``SkylineIndex.walk`` (the entry
   point a boosted scan walks the index through, once per subspace) makes
   the contract layer (and hence ``--strict`` / ``--contracts``) exit
   non-zero;
2. dropping a ``counter`` argument from a kernel call is caught by the
   RPR001 linter;
3. a miscomputing algorithm makes the differential layer exit non-zero.
"""

import textwrap

import numpy as np

from repro.algorithms.sfs import SFS
from repro.analysis.__main__ import main
from repro.analysis.contracts import run_contract_checks
from repro.analysis.differential import run_differential
from repro.analysis.report import gate_exit_code
from repro.core.subset_index import SkylineIndex


def _overbroad_walk(self, subspace, counter=None):
    """Mutation: ignore the superset filter, return every stored point."""
    out = []
    stack = [self._root]
    while stack:
        node = stack.pop()
        out.extend(node.points)
        stack.extend(node.children.values())
    return np.asarray(out, dtype=np.intp)


class TestBrokenSupersetFilter:
    def test_contract_layer_fails(self, monkeypatch):
        monkeypatch.setattr(SkylineIndex, "walk", _overbroad_walk)
        findings = run_contract_checks(kinds=("UI",), n=80, d=4, seeds=(1,))
        assert findings
        assert gate_exit_code(findings) == 1

    def test_cli_contract_gate_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(SkylineIndex, "walk", _overbroad_walk)
        assert main(["--no-lint", "--contracts"]) == 1
        assert "Lemma 5.1" in capsys.readouterr().out


class TestDroppedCounter:
    def test_linter_catches_the_dropped_argument(self, tmp_path):
        # the exact mutation: repro.core.merge calling a kernel bare
        (tmp_path / "merge.py").write_text(
            textwrap.dedent(
                """
                from repro.dominance import dominating_subspaces

                def merge_step(values, rest, pivot):
                    return dominating_subspaces(values[rest], values[pivot])
                """
            )
        )
        assert main([str(tmp_path)]) == 1


class TestBrokenAlgorithm:
    def test_differential_layer_fails(self, monkeypatch):
        original = SFS.run_phase

        def drops_last(self, dataset, ids, masks, container, counter):
            result = original(self, dataset, ids, masks, container, counter)
            return result[:-1] if len(result) > 1 else result

        monkeypatch.setattr(SFS, "run_phase", drops_last)
        failures = run_differential(
            algorithms=("sfs",), kinds=("UI",), n=60, d=4, seeds=(2,), minimize=False
        )
        assert failures
