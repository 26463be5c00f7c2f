"""Traced CLI child: ``python3 bench/cli_boot.py <input id> <berger-rank args>``.

Runs ``berger_rank.cli.main`` under the benchmark's spans, exactly as the
``berger-rank`` console script would run it, then appends the spans to
stderr after a marker line for run.py to collect.
"""

import json
import sys

from spans import SPAN_MARKER, Tracer, install


def main() -> int:
    tracer = Tracer()
    tracer.input_id = int(sys.argv[1])
    install(tracer)
    import berger_rank.cli as cli  # main is now the traced wrapper

    code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    sys.stderr.write(SPAN_MARKER + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
