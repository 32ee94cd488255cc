"""``python -m repro.tools`` — the dev-tooling entry point.

``lint`` is the only subcommand, and ``python -m repro.tools lint`` the
only way to run it.
"""

from __future__ import annotations

import sys

from repro.tools.lint import EXIT_ERROR, main as lint_main

_USAGE = """\
usage: python -m repro.tools COMMAND [options]

commands:
  lint    run reprolint (per-file rules + whole-program passes);
          see `python -m repro.tools lint --help`
"""


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    command, rest = args[0], args[1:]
    if command == "lint":
        return lint_main(rest)
    print(f"repro.tools: unknown command {command!r}\n{_USAGE}",
          end="", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
