"""docs/ANALYSIS.md documents every stable diagnostic code.

The PLAN-*, SCHED-*, RACE-* and SRC-* catalogues are the single source
of truth; the doc's code tables are written by hand.  These checks keep
the two in step: every catalogued code has a table row with its
catalogue severity, no row names an unregistered code, and every lint
code has a section in the check catalogue.
"""

import pathlib
import re

from repro.analysis import check_codes
from repro.analysis.certify import ALL_CODES
from repro.analysis.races import RACE_CODES
from repro.analysis.sourceflow import SRC_CODES

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "ANALYSIS.md"
TEXT = DOC.read_text()
CATALOGUE = {**ALL_CODES, **RACE_CODES, **SRC_CODES}

#: ``| `CODE` | severity | meaning |`` rows of the code tables.
ROW = re.compile(
    r"^\| `((?:PLAN|SCHED|RACE|SRC)-[A-Z-]+)` \| (\w+) \|", re.MULTILINE
)
#: ``### `code` — severity`` headings of the lint check catalogue.
HEADING = re.compile(r"^### `([a-z-]+)` — (\w+)$", re.MULTILINE)


def test_code_tables_match_the_catalogues():
    rows = ROW.findall(TEXT)
    documented = dict(rows)
    assert len(documented) == len(rows), "a code has two table rows"
    assert documented == {
        code: info.severity.value for code, info in CATALOGUE.items()
    }


def test_every_lint_code_is_documented():
    documented = dict(HEADING.findall(TEXT))
    assert set(check_codes()) <= set(documented)
