"""The README's library example runs against the package as it is."""
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The Python block of the README's "Library entry points" section."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1, "expected one python block under Library entry points"
    return blocks[0]


def test_library_example_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", library_example()],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
