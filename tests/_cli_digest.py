"""tools/cli_digest.py, loaded as a module, and the golden listing it wrote."""

import importlib.util
import os
import shlex

HERE = os.path.dirname(__file__)
TOOL = os.path.join(HERE, os.pardir, "tools", "cli_digest.py")
# PYTHONPATH=src python tools/cli_digest.py --raw > tests/cli_digest_raw.txt
GOLDEN = os.path.join(HERE, "cli_digest_raw.txt")

_spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def golden() -> dict:
    """{argv: (exit code, stdout lines)} of the golden listing."""
    return cli_digest.read_listing(GOLDEN)


def listing_now() -> dict:
    """The same listing, from running every digest command in process."""
    out = {}
    for line in cli_digest.COMMANDS:
        _, code, text = cli_digest.digest(shlex.split(line))
        out[line] = (code, text.splitlines())
    return out
