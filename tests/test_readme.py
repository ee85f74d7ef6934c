"""README's figures that a test can recount."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_line_count_matches_the_package():
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    found = re.findall(r"The package is ([\d,]+) lines \(`wc -l src/hlip/\*\.py`\)", text)
    assert len(found) == 1
    # wc -l counts newline characters
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "hlip").glob("*.py"))
    assert int(found[0].replace(",", "")) == lines
