"""Run one rmlab verb with span tracing installed.

    python3 perfbench/traced_verb.py TRACE_PATH VERB [rmlab flags...]

Spans go to ``TRACE_PATH.<pid>.<n>`` (one file per process flush). The exit
code is the verb's own.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import rmlab.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(sys.argv[1])
    tracer.install()
    try:
        return rmlab.cli.main(sys.argv[2:])
    finally:
        tracer.restore()
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
