"""Importing the command line loads no heavy standard module.

Every run of ``injury-lab`` pays for what ``injurylab.cli`` imports
before it reads its arguments.  ``dataclasses`` alone pulls in
``inspect``, and through it ``ast``, ``dis`` and ``tokenize``; the
package uses none of them.  Reading argv loads nothing either:
``argparse`` imports ``gettext``, and its messages import ``locale``.
Each probe runs in a fresh, isolated interpreter, so that what the test
suite has loaded does not count.  The probe writes no bytecode (``-B``;
``-I`` ignores ``PYTHONDONTWRITEBYTECODE``): a ``__pycache__`` left under
``src/`` would make every later fresh import of the package, the
benchmark's included, faster than in a clean checkout.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

PYCACHE = os.path.join(SRC, "injurylab", "__pycache__")

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
PARSING = ("argparse", "gettext", "locale")


def loaded(code, names):
    """Those of names that are in sys.modules after code runs in a fresh
    interpreter with the package on its path."""
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); {code}; "
             f"print(' '.join(m for m in {names!r} if m in sys.modules))")
    cached = os.path.exists(PYCACHE)
    out = subprocess.run([sys.executable, "-I", "-B", "-c", probe],
                         capture_output=True, text=True, check=True)
    assert cached or not os.path.exists(PYCACHE), "the probe wrote bytecode"
    return out.stdout.split()


def test_cli_import_loads_no_heavy_module():
    assert loaded("import injurylab.cli", HEAVY) == []


def test_reading_argv_loads_no_parsing_module():
    code = ("import io, injurylab.cli as cli; out = io.StringIO(); "
            "assert cli.main(['cnf', 'eval', 'w'], out) == 0, out.getvalue()")
    assert loaded("import injurylab.cli", PARSING) == []
    assert loaded(code, PARSING) == []
