"""``repro`` CLI with the benchmark's tracing probes installed.

Usage: ``python perfbench/launcher.py --spans FILE serve ...``.  The
arguments after ``--spans FILE`` go to ``python -m repro`` unchanged;
the spans recorded in this process are written to FILE when the CLI
returns (``repro serve`` returns after SIGINT).  Shard workers spawned
by ``serve --shards N`` run untraced.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    from repro.cli import main as repro_main
    from tracing import Recorder

    recorder = Recorder()
    recorder.install_server()
    try:
        return repro_main(argv[2:])
    finally:
        recorder.dump(Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
