"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (figure) or one ablation; the
``report`` fixture persists the printed comparison to
``bench-out/<test>.txt`` at the repo root so results survive pytest's
output capture.  The directory is gitignored: a bench run never
rewrites tracked files (CI uploads the reports as artifacts).
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).resolve().parent.parent / "bench-out"


class Reporter:
    #: Where reports (and any other bench artifacts) are written.
    out_dir = OUT_DIR

    def __init__(self, name: str):
        self.name = name
        self.lines = []

    def __call__(self, text: str = "") -> None:
        self.lines.append(str(text))

    def flush(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"{self.name}.txt"
        content = "\n".join(self.lines) + "\n"
        path.write_text(content)
        print()  # visible under `pytest -s`
        print(content)


@pytest.fixture
def report(request):
    reporter = Reporter(request.node.name.replace("/", "_"))
    yield reporter
    reporter.flush()
