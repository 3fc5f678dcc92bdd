"""README's library example runs against the package's public exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    rate = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert rate > 0.0
