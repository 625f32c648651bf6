"""One benchmark set-up in a fresh interpreter: import kane, gen-synth, prepare.

    python3 bench/make_data.py <out-dir> <seed> <entities> <clusters>

``run.py`` starts this several times and takes the child's CPU time as the
set-up time a user pays: interpreter start, the NumPy and ``kane`` imports,
and both commands. Exits with the first non-zero command status.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    out, seed, entities, clusters = argv
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import kane.cli

    d = Path(out)
    commands = [
        ["gen-synth", "--out", d, "--seed", seed, "--set", f"entities={entities}", "--set", f"clusters={clusters}"],
        ["prepare", "--relations", d / "relations.tsv", "--attributes", d / "attributes.tsv",
         "--labels", d / "labels.tsv", "--out", d, "--seed", seed],
    ]
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = kane.cli.main([str(a) for a in argv])
        if rc != 0:
            sys.stderr.write(buf.getvalue())
            return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
