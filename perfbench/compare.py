"""Compare benchmark records side by side and flag differing environments.

    python3 perfbench/compare.py BASE.json [BASE2.json ...] -- NEW.json [NEW2.json ...]

Each file is a record that ``run.py`` writes to ``perfbench/out/``.  For
every metric the medians of both sides are printed with their ratio.  When
the environment blocks differ (numba present on one side, another numpy,
another CPU) the comparison is flagged and the exit code is 1: numba's
presence alone moves the radial solver by orders of magnitude.
"""

from __future__ import annotations

import json
import statistics
import sys

# fields that legitimately differ between two commits of the same setup
_PER_COMMIT = ("ecsc_commit", "ecsc_source_sha256")


def _load(paths):
    return [json.loads(open(p, encoding="utf-8").read()) for p in paths]


def environment_differences(base: list[dict], new: list[dict]) -> list[str]:
    envs = [
        {k: v for k, v in r["environment"].items() if k not in _PER_COMMIT}
        for r in base + new
    ]
    first = envs[0]
    return sorted({
        f"{k}: {first.get(k)!r} vs {env.get(k)!r}"
        for env in envs[1:] for k in first.keys() | env.keys() if first.get(k) != env.get(k)
    })


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = _load(argv[:cut]), _load(argv[cut + 1:])
    if not base or not new:
        print("need at least one record on each side", file=sys.stderr)
        return 2
    workloads = {r["workload"] for r in base + new}
    if len(workloads) > 1:
        print(f"records mix workloads: {sorted(workloads)}", file=sys.stderr)
        return 2
    for name in sorted(base[0]["metrics"]):
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not b or not n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        ratio = f"{mn / mb:.3f}" if mb else "n/a"
        unit = base[0]["metrics"][name]["unit"]
        print(f"{name:48s} {mb:12.6g} -> {mn:12.6g} {unit:6s} ratio {ratio}")
    diffs = environment_differences(base, new)
    for line in diffs:
        print(f"ENVIRONMENT DIFFERS {line}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
