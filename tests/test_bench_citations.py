"""Every benchmark file that the package cites is committed.

A device kept for speed names the ``BENCH_<n>.json`` that measured it; a
citation of a file that is not at the repository root cannot be checked.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_cited_bench_file_exists():
    cited = {}
    for path in sorted((ROOT / "src" / "fdrelay").glob("*.py")):
        for name in re.findall(r"\bBENCH_\d+\.json", path.read_text(encoding="utf-8")):
            cited.setdefault(name, path.name)
    assert cited, "no BENCH_<n>.json is cited in src/fdrelay"
    missing = {name: where for name, where in cited.items() if not (ROOT / name).is_file()}
    assert not missing, f"cited but not at the repository root: {missing}"
