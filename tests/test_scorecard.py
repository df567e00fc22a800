"""The paper scorecard (``benchmarks/scorecard.py``) as a tier-1 gate.

Every row is measured once per session.  A failure names the row; an
open row that moved, or came within tolerance, fails as well.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "scorecard", ROOT / "benchmarks" / "scorecard.py")
scorecard = sys.modules["scorecard"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scorecard)


@pytest.fixture(scope="module")
def card():
    return scorecard.rows()


def check(card):
    failed = scorecard.problems(card)
    assert not failed, "\n".join(failed)


def with_ours(card, row_id, ours):
    return [dataclasses.replace(r, ours=ours) if r.id == row_id else r
            for r in card]


class TestScorecard:
    def test_every_row_within_tolerance_or_pinned(self, card):
        check(card)

    def test_ids_unique_and_open_rows_owned(self, card):
        assert len({r.id for r in card}) == len(card)
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for row in card:
            if not row.is_open:
                assert row.pin is None, row.id
                continue
            assert re.fullmatch(r"item \d+|unowned", row.owner), row.id
            assert row.pin is not None, row.id
            if row.owner == "unowned":
                assert row.id in experiments, row.id

    def test_script_prints_every_row_and_exits_zero(self, card,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(scorecard, "rows", lambda: card)
        assert scorecard.main() == 0
        lines = capsys.readouterr().out.splitlines()
        for row in card:
            assert any(line.startswith(row.id + " ") for line in lines)
        n_open = sum(r.is_open for r in card)
        assert lines[-1] == (f"{len(card)} rows: {len(card) - n_open} "
                             f"within tolerance, {n_open} open")

    def test_row_outside_tolerance_fails_test_and_script(self, card,
                                                         monkeypatch):
        row = next(r for r in card if r.id == "table3.tput_relerr")
        bad = with_ours(card, row.id, row.tol * 2)
        with pytest.raises(AssertionError, match="table3.tput_relerr"):
            check(bad)
        monkeypatch.setattr(scorecard, "rows", lambda: bad)
        assert scorecard.main() == 1

    def test_open_row_that_moves_fails(self, card, monkeypatch):
        row = next(r for r in card if r.id == "fig15.tiled_vs_untiled_x")
        assert row.is_open
        moved = with_ours(card, row.id, row.pin * (1 + 1e-6))
        with pytest.raises(AssertionError, match="open row moved"):
            check(moved)
        closed = with_ours(card, row.id, 0.5)
        with pytest.raises(AssertionError, match="within tol now"):
            check(closed)
        monkeypatch.setattr(scorecard, "rows", lambda: moved)
        assert scorecard.main() == 1

    def test_err_is_relative_distance_or_zero_inside_band(self):
        row = scorecard.Row("r", "s", (1.0, 2.0), 1.5, 0.0, "")
        assert row.err == 0.0
        assert dataclasses.replace(row, ours=2.5).err == pytest.approx(0.25)
        assert dataclasses.replace(row, ours=0.5).err == pytest.approx(0.5)
        assert dataclasses.replace(row, paper=4.0, ours=3.0).err == \
            pytest.approx(0.25)
        assert dataclasses.replace(row, paper=0.0, ours=0.05).err == \
            pytest.approx(0.05)
