"""Compare two benchmark result files and flag differing environments.

    python3 benchmarks/compare.py BASE.json NEW.json

Each file is one ``.bench_out/results/<workload>-seed<n>-trace<t>.json``
written by run.py (or an entry of baseline.json). Prints every metric of
both with the ratio NEW/BASE. If the environment stamps differ in
anything but the code identity (git sha, source digest), the comparison
is flagged: the numbers then measure the environment as well as the code.
"""

from __future__ import annotations

import json
import sys

CODE_IDENTITY = ("git_sha", "src_sha256")


def stamp_differences(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a.get(k)!r} vs {b.get(k)!r}"
            for k in sorted(set(a) | set(b))
            if k not in CODE_IDENTITY and a.get(k) != b.get(k)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(p).read()) for p in argv)
    for key in ("workload", "trace"):
        if base.get(key) != new.get(key):
            print(f"FLAG: {key} differs: {base.get(key)!r} vs "
                  f"{new.get(key)!r}")
    for diff in stamp_differences(base.get("env", {}), new.get("env", {})):
        print(f"FLAG: environment differs, {diff}")
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            print(f"{name}: missing from {argv[1]}")
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"{name}: {a:.6g} -> {b:.6g} {m['unit']} (x{ratio})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
