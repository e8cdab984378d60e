"""The package declares itself: ``setup.py`` metadata matches the source."""

import os
import subprocess
import sys

from repro import __version__

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_setup_declares_name_and_version():
    proc = subprocess.run([sys.executable, "setup.py", "--name", "--version"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["repro", __version__]
