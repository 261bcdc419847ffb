"""Source-level guards: one eigensolver site, one thread pool, no second sweep."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "distpareto"


def _occurrences(pattern: str) -> list[str]:
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(pattern, line):
                hits.append(f"{path.name}:{lineno}")
    return hits


def test_single_eigvalsh_site():
    assert len(_occurrences(r"eigvalsh\(")) == 1


def test_single_thread_pool_site():
    assert len(_occurrences(r"ThreadPoolExecutor\(")) == 1


def test_pure_python_connectivity_sweep_is_gone():
    assert _occurrences(r"\b_connected_masks\b") == []
