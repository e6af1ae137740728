"""The README's library example runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_solves(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert namespace["result"].converged
    assert capsys.readouterr().out.startswith(f"{namespace['result'].iterations} ")
