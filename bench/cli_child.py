"""Traced stand-in for ``python -m fanocalc``.

Usage: cli_child.py SPANS_FILE OP_ID ARGV...

Installs the span wrappers, runs ``fanocalc.cli.main(ARGV)`` and exits with
its code, as ``python -m fanocalc`` would.  The spans, counters and
realize_recipe's cache counts are written to SPANS_FILE on the way out,
also when main raises.
"""

import json
import sys

import spans

import fanocalc.cli


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        return fanocalc.cli.main(argv)
    finally:
        dump = tracer.dump()
        info = fanocalc.catalog.realize_recipe.cache_info()
        dump["cache"] = [info.hits, info.misses]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main())
