"""Run one ``repro`` command and record when it became ready for work.

    python perfbench/ready.py READY_FILE ARGV...

does what ``python -m repro ARGV...`` does (import ``repro.cli``, run
``main``), and writes the ``time.perf_counter()`` reading taken right after
the import to ``READY_FILE``.  The clock is system-wide, so the caller
subtracts its own reading from just before the spawn: that difference is
the interpreter start plus import every CLI call pays (``setup_s``).
"""

import sys
import time


def main(argv):
    ready_path, command = argv[0], argv[1:]
    import repro.cli

    with open(ready_path, "w", encoding="utf-8") as fh:
        fh.write(repr(time.perf_counter()))
    return repro.cli.main(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
