"""The CLI's bytes against the digests that ``tools/bytecheck.py`` records.

Every command of ``bytecheck.COMMANDS`` runs in-process through ``cli.main``
with file descriptors 1 and 2 captured, so that what LAPACK writes there
itself counts too.  Exit codes and every stream that
``bytecheck.KERNEL_STREAMS`` does not mark are compared under any build;
the marked streams, whose float digits may legitimately move with the
numpy or BLAS build or the CPU's BLAS kernels, only where
``bytecheck.versions`` gives what it gave when the digests were made.  The
BLAS thread count moves none of them, so all are compared at any thread
count.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bytecheck import COMMANDS, KERNEL_STREAMS, digest, versions  # noqa: E402
from nkji.cli import main  # noqa: E402

DIGESTS = Path(__file__).with_name("bytecheck_digests.json")


def test_cli_bytes_match_the_recorded_digests(capfdbinary, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(DIGESTS.read_text())
    assert [d["argv"] for d in recorded["commands"]] == [list(argv) for argv in COMMANDS]
    native = versions() == {key: recorded[key] for key in ("numpy", "blas", "kernels")}
    moved = []
    for n, (argv, want) in enumerate(zip(COMMANDS, recorded["commands"])):
        compared = [key for key in ("code", "stdout", "stderr")
                    if native or key not in KERNEL_STREAMS.get("".join(argv[:1]), ())]
        try:
            code = main(list(argv))
        except SystemExit as exit_:   # argparse's usage errors
            code = exit_.code
        got = digest(argv, code, *capfdbinary.readouterr())
        changed = [key for key in compared if got[key] != want[key]]
        if changed:
            moved.append(f"{n} {' '.join(argv)!r}: {', '.join(changed)}")
    assert not moved, "moved:\n" + "\n".join(moved)
