"""Importing the command line loads no heavy standard module.

Every run of ``injury-lab`` pays for what ``injurylab.cli`` imports
before it reads its arguments.  ``dataclasses`` alone pulls in
``inspect``, and through it ``ast``, ``dis`` and ``tokenize``; the
package uses none of them.  The import runs in a fresh, isolated
interpreter, so that what the test suite has loaded does not count.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_heavy_module():
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            f"import injurylab.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
