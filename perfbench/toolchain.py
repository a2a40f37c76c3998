"""Stand-in external toolchain for the benchmark's external-max workload.

Stands in for a real compiler and test runner, using only the standard
library and `minigi.lang`, so the external adapter's verdicts can be
compared byte for byte with the builtin backend:

    toolchain.py compile PROGRAM
        exit 0 iff PROGRAM parses and passes semantic validation
    toolchain.py test PROGRAM TESTS STEP_BUDGET STEPS_OUT
        run the whole suite; write the total step count to STEPS_OUT;
        exit 0 iff every test passes

The measure command is `cat STEPS_OUT`, so the recorded runtime is the
same step total the builtin backend logs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minigi.lang import ParseError, Status, parse_source, parse_test_file, run_suite, validate


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def main(argv: list[str]) -> int:
    if argv[:1] == ["compile"] and len(argv) == 2:
        try:
            unit = parse_source(_read(argv[1]))
        except ParseError:
            return 1
        return 1 if validate(unit) else 0
    if argv[:1] == ["test"] and len(argv) == 5:
        _, program, tests, budget, steps_out = argv
        outcomes = run_suite(parse_source(_read(program)), parse_test_file(_read(tests)), int(budget))
        Path(steps_out).write_text(f"{sum(o.steps_used for o in outcomes)}\n", encoding="utf-8")
        return 0 if all(o.status is Status.PASS for o in outcomes) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
