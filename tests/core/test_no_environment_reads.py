"""Library behaviour is selected by arguments, never by the environment.

Every switch the library used to have was an ``os.environ`` read at import
or freeze time; this guard keeps new ones from appearing.  Command-line entry
points (``__main__.py``) may read what they like.
"""

import pathlib
import re

import repro

ENV_READ = re.compile(r"\benviron\b|\bgetenv\b")


def test_no_library_module_reads_the_environment():
    root = pathlib.Path(repro.__file__).parent
    offenders = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if path.name != "__main__.py" and ENV_READ.search(path.read_text())
    )
    assert not offenders, f"modules reading the environment: {offenders}"
