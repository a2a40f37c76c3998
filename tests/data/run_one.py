"""Stand-in per-test runner for the external adapter: runs one named test.

    run_one.py PROGRAM TESTS NAME STEP_BUDGET STEPS_OUT
        run the test NAME of TESTS on PROGRAM alone; append its step count
        to STEPS_OUT as one line; exit 0 iff it passes

As a `test_cmd` with `{TEST}` for NAME, the adapter runs it once per test
and stops at the first failing one. A test's steps do not depend on the
tests run before it, so a `measure_cmd` that sums the lines of STEPS_OUT
prints the step total the builtin backend logs for a passing patch.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from minigi.lang import Status, parse_source, parse_test_file, run_suite


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    program, tests, name, budget, steps_out = argv
    (test,) = [t for t in parse_test_file(Path(tests).read_text(encoding="utf-8")) if t.name == name]
    unit = parse_source(Path(program).read_text(encoding="utf-8"))
    (outcome,) = run_suite(unit, [test], int(budget))
    with open(steps_out, "a", encoding="utf-8") as fh:
        fh.write(f"{outcome.steps_used}\n")
    return 0 if outcome.status is Status.PASS else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
