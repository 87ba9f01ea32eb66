"""README "Scale limits" states the one size limit the code has."""

import re
from pathlib import Path

from resconv.core import MAX_ENTRIES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def test_the_readme_gives_the_value_of_max_entries():
    section = README.split("## Scale limits", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"`core\.MAX_ENTRIES` = 10([⁰¹²³⁴⁵⁶⁷⁸⁹]+) entries", section)
    assert stated, "README \"Scale limits\" does not state core.MAX_ENTRIES"
    assert [10 ** int(e.translate(SUPERSCRIPTS)) for e in stated] == [MAX_ENTRIES] * len(stated)


def test_the_readme_gives_the_product_memo_bounds():
    from resconv import stoch

    section = README.split("## Scale limits", 1)[1].split("\n## ", 1)[0]
    for name in ("PRODUCT_MEMO_SIZE", "PRODUCT_MEMO_NAMES"):
        stated = re.findall(rf"at most (\d+) \w+\s+\(`stoch\.{name}`\)", section)
        assert stated == [str(getattr(stoch, name))], name
