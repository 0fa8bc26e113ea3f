import os
import subprocess
import sys
from pathlib import Path

import pytest

import notegrade

SRC = Path(__file__).resolve().parents[1] / "src"


def _eager_version():
    """``__version__`` as the package once computed it at import."""
    from importlib import metadata
    try:
        return metadata.version("notegrade")
    except metadata.PackageNotFoundError:
        return "0+unknown"


# The metadata reader (importlib.metadata, which loads email.*) is read
# only for __version__; records are named tuples, not dataclasses, whose
# code generation loads inspect (and with it ast, dis and tokenize).
@pytest.mark.parametrize("module", ["importlib.metadata", "email",
                                    "dataclasses", "inspect"])
def test_importing_the_cli_loads_no_metadata_reader(module):
    # Compared with what was loaded before the import, so that a site hook
    # that loads these modules itself does not count against notegrade.
    code = ("import sys; before = set(sys.modules); import notegrade.cli; "
            "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    added = done.stdout.split()
    assert "notegrade.cli" in added
    # The module or any of its submodules.
    assert [name for name in added if name == module
            or name.startswith(module + ".")] == []


def test_version_reads_as_the_eager_lookup(monkeypatch):
    expected = _eager_version()
    monkeypatch.delitem(vars(notegrade), "__version__", raising=False)
    assert notegrade.__version__ == expected
    # The first read stores the value, so later reads skip __getattr__.
    assert vars(notegrade)["__version__"] == expected
    monkeypatch.delitem(vars(notegrade), "__version__")
    from notegrade import __version__
    assert __version__ == expected


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        notegrade.no_such_name
    assert not hasattr(notegrade, "__no_such_dunder__")
