"""Check every listed file once in this fresh process; print peak RSS in MB.

Usage: python3 onepass.py <workload> <file listing one path per line>
"""

import resource
import sys

from measure import Linter, untraced_pass
from workloads import CONFIG_ARGS


def main() -> None:
    workload, list_file = sys.argv[1], sys.argv[2]
    with open(list_file, encoding="utf-8") as fh:
        paths = fh.read().splitlines()
    untraced_pass(Linter(CONFIG_ARGS, oracle=workload == "oracle"), paths)
    # Linux reports ru_maxrss in KiB
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    main()
