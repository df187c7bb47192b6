"""The README's sixty-second tour must actually run as printed."""

from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[2] / "README.md"


def _python_block(heading):
    """The first ```python block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


class TestReadmeTour:
    def test_sixty_second_tour(self):
        from repro.apps.eccentricity import compute_diameter
        from repro.apps.meeting import schedule_meeting
        from repro.congest import topologies

        net = topologies.grid(6, 6)

        rng = np.random.default_rng(0)
        calendars = {
            v: list(int(b) for b in rng.integers(0, 2, size=200))
            for v in net.nodes()
        }
        meeting = schedule_meeting(net, calendars, seed=0)
        assert 0 <= meeting.best_slot < 200
        assert meeting.rounds > 0
        assert meeting.run.rounds.by_phase()

        diameter = compute_diameter(net, seed=0)
        assert diameter.value in set(net.eccentricities.values())
        assert diameter.rounds > 0

    def test_scheduler_snippet_runs_as_printed(self):
        scope = {}
        exec(_python_block("## Serving many callers"), scope)
        sched = scope["sched"]
        # alice's read ran one batch for alice and bob; carol's, one more.
        assert sched.physical_batches == 2
        assert sched.done(scope["t2"]) and len(scope["values"]) == 2
        assert sched.account("alice").queries.signature() == ((2, "probe"),)

    def test_paper_index_example(self):
        from repro.paper import where_is

        entry = where_is("Lemma 10")
        assert entry.experiments == ("E7",)

    def test_cli_entry_documented_behaviour(self, capsys):
        from repro.__main__ import main

        assert main(["run", "E15"]) == 0
        assert "E15" in capsys.readouterr().out
