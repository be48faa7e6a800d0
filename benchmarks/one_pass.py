"""Run one pass of a workload's commands in-process and report peak RSS.

Usage: python one_pass.py PASS_JSON

PASS_JSON holds {"commands": [[arg, ...], ...]}; paths in the arguments are
relative to the current directory. The last line of standard output is
{"exit_codes": [...], "times": [...], "max_rss_kib": N}; times
are measured inside this process, so interpreter start-up is excluded. The
package must be importable (PYTHONPATH pointing at the source tree).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def run_commands(runner, cli, commands, mark=None) -> tuple[list[int], list[float], list[str]]:
    """Invoke each command through click's runner; return exit codes, times, errors.

    `mark`, if given, is called untimed before each command and after the last.
    """
    exit_codes, times, errors = [], [], []
    for args in commands:
        if mark is not None:
            mark()
        start = time.perf_counter()
        result = runner.invoke(cli, list(args))
        times.append(time.perf_counter() - start)
        exit_codes.append(result.exit_code)
        errors.append("" if result.exit_code == 0 else f"{result.output}{result.exception!r}")
    if mark is not None:
        mark()
    return exit_codes, times, errors


def main(argv: list[str]) -> int:
    from click.testing import CliRunner

    from tempolabel.cli import main as cli

    with open(argv[1]) as handle:
        commands = json.load(handle)["commands"]
    exit_codes, times, errors = run_commands(CliRunner(), cli, commands)
    for error in errors:
        if error:
            print(error, file=sys.stderr)
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"exit_codes": exit_codes, "times": times, "max_rss_kib": max_rss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
