"""Every benchmark file that the package and its documents cite is committed.

A device kept for speed names the ``BENCH_<n>.json`` that measured it, and
README.md and ROADMAP.md cite the files behind their figures; a citation of
a file that is not at the repository root cannot be checked.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cited(paths):
    """Each BENCH_<n>.json that ``paths`` cite, with the first file citing it."""
    cited = {}
    for path in paths:
        for name in re.findall(r"\bBENCH_\d+\.json", path.read_text(encoding="utf-8")):
            cited.setdefault(name, path.name)
    return cited


def test_every_cited_bench_file_exists():
    cited = _cited(sorted((ROOT / "src" / "fdrelay").glob("*.py")))
    assert cited, "no BENCH_<n>.json is cited in src/fdrelay"
    missing = {name: where for name, where in cited.items() if not (ROOT / name).is_file()}
    assert not missing, f"cited but not at the repository root: {missing}"


def test_every_bench_file_the_documents_cite_exists():
    cited = _cited([ROOT / "README.md", ROOT / "ROADMAP.md"])
    missing = {name: where for name, where in cited.items() if not (ROOT / name).is_file()}
    assert not missing, f"cited but not at the repository root: {missing}"
