"""Compare the failed tests of pytest JUnit reports with the documented set.

    python .github/check_failures.py tier1.xml perfbench.xml

Exits 0 only when the failed (or erroring) tests are exactly the three
acceptance criteria that ROADMAP.md documents as failing by design.  An
extra failure, or one of the three passing or not running, exits 1 and
prints the difference.  It also prints each report's wall time and the
time of its test cases summed per module, slowest first (the timing
decides nothing).
"""

import sys
import xml.etree.ElementTree as ET
from collections import Counter

EXPECTED = {
    "tests.test_acceptance::test_criterion_2_large_c_limit[2.5]",
    "tests.test_acceptance::test_criterion_4_hc2_figure[1.0]",
    "tests.test_acceptance::test_criterion_7_boolean_std[12]",
}


def module(classname):
    """tests.test_cli for tests.test_cli.TestConfig: up to the first test_ part."""
    parts = classname.split(".")
    for k, part in enumerate(parts):
        if part.startswith("test_"):
            return ".".join(parts[:k + 1])
    return classname


def print_times(path, root):
    wall = sum(float(suite.get("time", 0)) for suite in root.iter("testsuite"))
    print(f"{path}: {wall:.1f} s wall")
    per_module = Counter()
    for case in root.iter("testcase"):
        per_module[module(case.get("classname", ""))] += float(case.get("time", 0))
    for name, seconds in per_module.most_common():
        print(f"  {name} {seconds:.1f} s")


def main(paths):
    failed, ran = set(), 0
    for path in paths:
        root = ET.parse(path).getroot()
        print_times(path, root)
        for case in root.iter("testcase"):
            ran += 1
            if case.find("failure") is not None or case.find("error") is not None:
                failed.add(f"{case.get('classname')}::{case.get('name')}")
    print(f"{ran} tests ran, {len(failed)} failed")
    unexpected, missing = sorted(failed - EXPECTED), sorted(EXPECTED - failed)
    for test_id in unexpected:
        print(f"unexpected failure: {test_id}")
    for test_id in missing:
        print(f"documented failure passed or did not run: {test_id}")
    if ran == 0 or unexpected or missing:
        return 1
    print("failed tests match the documented set")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
