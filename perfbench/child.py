"""Work the benchmark runs in a fresh interpreter, one job per process.

  child.py setup WORKLOAD SEED SCALE DIR   build inputs; print the seconds it took,
                                           counting the import of slpeval
  child.py rss OUT -- ARGV...              run ``slpeval.cli.main(ARGV)``, write its
                                           stdout to OUT; print exit code and peak RSS
"""

from __future__ import annotations

import json
import sys
import time

# taken before slpeval and numpy are imported, so set-up time includes them
_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _setup(workload: str, seed: str, scale: str, out: str) -> dict:
    import workloads

    workloads.build(workload, int(seed), scale, Path(out))
    return {"seconds": time.perf_counter() - _START}


def _rss(out: str, argv: list[str]) -> dict:
    from slpeval import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    Path(out).write_text(buffer.getvalue(), encoding="utf-8")
    # Linux reports ru_maxrss in KiB
    return {"exit": code, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 5:
        result = _setup(*argv[1:])
    elif argv[:1] == ["rss"] and len(argv) >= 3 and argv[2] == "--":
        result = _rss(argv[1], argv[3:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
