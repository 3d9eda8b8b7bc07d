"""Run a snippet in a fresh `python -O` interpreter.

`python -O` strips assert statements, so a check that must survive it
has to raise.  The snippet runs against the chowstab under test.
"""

import os
import subprocess
import sys
import textwrap

import chowstab


def run_optimized(script: str) -> str:
    """The stripped stdout of `script` run under python -O."""
    code = ("import sys\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('assert statements are live')\n"
            + textwrap.dedent(script))
    src = os.path.dirname(os.path.dirname(chowstab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()
