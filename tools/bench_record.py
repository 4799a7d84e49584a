"""Record paired perfbench runs of two checkouts in one BENCH_*.json file.

    python3 tools/bench_record.py BENCH_26.json --base ../parent \
        [--seed 1] [--pairs sweep-eps=5,verify=5,mesh-pp=3]

The change is the checkout that holds this script; --base is another
checkout, such as a `git clone` of the parent commit.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

once in each checkout, one process at a time: the base first in even pairs
and the change first in odd ones.  A run keeps perfbench's `env` and
`result` lines and its last line (`summary`), whose `correct` says whether
every output check passed.  Then each checkout reports, in a fresh process,
the stored entries of K, B and the eliminated Stokes system, and the
factor entries (`lu_nnz`) of A and Kp, on the structured meshes n = 32, 64
and 128 and on the jittered mesh-pp meshes n = 96 and 128 of the seed.
Nothing outside the two checkouts is written; perfbench works under each
checkout's `.bench_work/`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep-eps", "verify", "mesh-pp")

# Run in a checkout's root: prints the size table of that checkout's package.
SIZES = r"""
import json, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import run as bench
from epsstokes import Discretization, build_structured_mesh, load_mesh

def sizes(mesh):
    disc = Discretization(mesh)
    return {"K": disc.stiff_u.nnz, "B": disc.div.nnz,
            "S": disc.stokes_system.matrix.nnz,
            "A_lu_nnz": disc.velocity_factor.nnz,
            "Kp_lu_nnz": disc.pressure_factor.nnz}

work = Path(".bench_work/sizes")
work.mkdir(parents=True, exist_ok=True)
table = {f"structured n={n}": sizes(build_structured_mesh(n)) for n in (32, 64, 128)}
for item in bench.make_inputs("mesh-pp", int(sys.argv[1]), work)["meshes"]:
    if item["n"] in (96, 128):
        table[f"jittered n={item['n']}"] = sizes(load_mesh(item["path"]))
print(json.dumps(table))
"""


def perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in checkout: its env, result and summary lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "30", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines if line.startswith(("env ", "result "))}
    return {"env": tagged["env"], "result": tagged["result"],
            "summary": json.loads(lines[-1])}


def sizes(checkout: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", SIZES, str(seed)], cwd=checkout,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def parse_pairs(text: str) -> dict:
    pairs = {}
    for item in text.split(","):
        name, _, count = item.partition("=")
        if name not in WORKLOADS or not count.isdigit():
            raise SystemExit(f"error: bad --pairs item {item!r}")
        pairs[name] = int(count)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", default="sweep-eps=5,verify=5,mesh-pp=3")
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": CHANGE}
    runs = []
    for workload, count in parse_pairs(args.pairs).items():
        for pair in range(count):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                run = perfbench(sides[side], workload, args.seed)
                runs.append({"workload": workload, "pair": pair, "side": side, **run})
                print(workload, pair, side, run["result"]["metrics"], flush=True)
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0",
        "seed": args.seed,
        "sizes": {side: sizes(path, args.seed) for side, path in sides.items()},
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
