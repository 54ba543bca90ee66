"""Other CPython interpreters that a test can run privavg under."""

import os
import platform
from pathlib import Path


def other_interpreters():
    """CPython 3.10 or later under pyenv's versions directory, but not this one."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for home in sorted(root.glob("3.*")) if root.is_dir() else ():
        release = home.name.split(".")
        python = home / "bin" / "python3"
        if (
            len(release) == 3
            and all(part.isdigit() for part in release)
            and tuple(map(int, release)) >= (3, 10)
            and home.name != platform.python_version()
            and python.is_file()
        ):
            found.append(python)
    return found
