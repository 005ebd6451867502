"""Every python block of README.md runs as written, so a rename in the
library fails here instead of leaving the documentation broken."""
import re
from pathlib import Path

import pytest

README = (Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)


def test_the_readme_has_four_python_blocks():
    assert len(BLOCKS) == 4


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_a_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
