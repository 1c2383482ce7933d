"""Reference process: regenerate the inputs, then compute the expected answers.

Usage: ``python3 perfbench/reference.py --workload W --seed N --dir DIR``

Regenerates the workload's inputs from the seed and compares their bytes
with ``DIR/inputs.json``, which another process wrote under another
``PYTHONHASHSEED``.  Then runs the ``naive`` executor once over them,
untimed.  Prints ``{"identical": bool, "expected": {check key: digest}}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from check import reference
from workloads import decode, encode, generate


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    written = (args.dir / "inputs.json").read_bytes()
    identical = encode(generate(args.workload, args.seed)) == written
    workdir = args.dir / "reference"
    workdir.mkdir(exist_ok=True)
    expected = reference(decode(written), workdir)
    print(json.dumps({"identical": identical, "expected": expected}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
