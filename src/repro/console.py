"""Standard output of the command-line tools.

A reader that has gone away (``repro-zen2 all | head``, a closed pipe)
must not change what a command does: it still writes every file it was
asked for and exits with the status it computed.
"""

from __future__ import annotations

import os
import sys


def say(*values: object) -> None:
    """``print`` to stdout; after the first failed write, to ``os.devnull``."""
    try:
        print(*values, flush=True)
    except BrokenPipeError:
        # The "Note on SIGPIPE" in the signal module's docs: point the
        # descriptor at devnull, so later writes and the flush at exit
        # succeed instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
