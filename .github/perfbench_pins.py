"""Checks traced perfbench runs at `--seed 3 --seconds 2` against their pins.

Usage: python3 .github/perfbench_pins.py DIR

DIR holds `perfbench-<workload>.out` for each pinned workload, written by
`perfbench --workload <workload> --seed 3 --seconds 2 --trace 1`. The run
size is a function of the seconds, so every pin is host-independent.

Per workload, the untraced and the traced result digests must equal the
pinned digest (what the evals computed), and the traced work counts in
the result line's `metrics` must equal their pins (how much work the
layers did to compute it). A change that only speeds a layer up moves
neither; moving one is a re-baseline, recorded in CHANGES.md.
"""

import json
import sys
from pathlib import Path

PINS = {
    "platform-grid": (
        "d2df9e52562f9562",
        {
            "simserver.driver.events": 11_019_735,
            "simserver.driver.probes": 612,
            "simserver.batch.events": 86_016,
            "simcore.event.scheduled": 11_105_751,
        },
    ),
    "design-sweep": (
        "cb685337abe1695b",
        {
            "memshare.replay.accesses": 160_000_000,
            "flashcache.replay.blocks": 576_000_000,
            "simserver.driver.events": 2_160_456,
            "simcore.event.scheduled": 2_176_840,
        },
    ),
    "traffic-what-if": (
        "6ea704e74b12072b",
        {
            "simserver.openloop.events": 7_986_570,
            "simserver.resilience.events": 6_707_280,
            "simcore.event.scheduled": 14_721_498,
        },
    ),
}


def main(out_dir: Path) -> bool:
    ok = True
    for workload, (digest, counts) in PINS.items():
        lines = (out_dir / f"perfbench-{workload}.out").read_text().splitlines()
        diagnostics, result = json.loads(lines[0]), json.loads(lines[-1])
        got = (diagnostics["digest"], diagnostics["traced_digest"])
        good = got == (digest, digest)
        print(f"{workload}: digests {got[0]} {got[1]}, pinned {digest}" + ("" if good else "  MISMATCH"))
        ok &= good
        for name, want in counts.items():
            value = result["metrics"][name]["value"]
            good = value == want
            print(f"  {name} = {value}, pinned {want}" + ("" if good else "  MISMATCH"))
            ok &= good
    return ok


if __name__ == "__main__":
    sys.exit(0 if main(Path(sys.argv[1])) else 1)
