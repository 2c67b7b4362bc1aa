#!/usr/bin/env python3
"""Compare the per-operation output digests of two benchmark result files.

    python3 bench/digests.py REFERENCE.json RESULT.json

Both files come from ``bench/run.py`` with the same workload and seed, for
example one made at a parent commit and one at a change.  Prints every
operation whose stdout (plus exit code and written files) differs, and exits
1 if any does.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    ref, new = (json.load(open(path, encoding="utf-8")) for path in argv)
    if (ref["workload"], ref["seed"]) != (new["workload"], new["seed"]):
        sys.stderr.write("error: the files are for different workloads or seeds\n")
        return 2
    old = {op["name"]: op["digest"] for op in ref["ops"]}
    differ = [op["name"] for op in new["ops"] if old.get(op["name"]) != op["digest"]]
    differ += [name for name in old if name not in {op["name"] for op in new["ops"]}]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(new['ops']) - len(differ)} of {len(new['ops'])} operations byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
