"""Entry point: puts the program's source on the path, then runs the CLI.

The benchmark measures the checkout it sits in, never an installed copy, so
it refuses to start where ``src/repro`` is absent.
"""

import sys
from pathlib import Path

_SOURCE = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (_SOURCE / "repro").is_dir():
        sys.exit(f"bench: no program source at {_SOURCE / 'repro'}")
    sys.path.insert(0, str(_SOURCE))
    from bench.cli import main

    sys.exit(main())
