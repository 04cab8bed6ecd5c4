"""``repro serve`` with the benchmark's timing shims installed.

Usage (from the repository root, with ``src`` and the root on
``PYTHONPATH``): ``python3 -m perfbench.serve_traced serve [flags]`` —
the same arguments as ``python -m repro``.  The traced run launches
servers this way; the untraced run launches ``python -m repro`` itself.
"""

from __future__ import annotations

import sys


def main(argv=None) -> int:
    from perfbench import shims
    from perfbench.spans import Recorder

    shims.install_server(Recorder())
    from repro import cli

    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
