"""The command line run in a child process, for the tests that need one."""

import os
import subprocess
import sys

import gazefield


def run_cli_process(*argv, warn="ignore", timeout=60):
    """Run ``python -W <warn> -m gazefield.cli <argv>`` on the gazefield the tests
    import: a separate process, so a hang fails by timeout instead of stalling."""
    src = os.path.dirname(os.path.dirname(gazefield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-W", warn, "-m", "gazefield.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)
