"""Rewrite golden.json from the liemat sources of this checkout.

    python3 perfbench/golden.py

Runs every job once (each recovery instance too), refuses to record an
output that fails its check, and stores one digest per job.  Run it only
when a change to the library's canonical output is intended.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run._import_library()
    import jobs  # needs the library on sys.path

    golden = {}
    workdir = run.OUT / "inputs-golden"
    try:
        for workload in run.WORKLOADS:
            seeds = range(jobs.INSTANCES) if workload == "recovery" else [0]
            for seed in seeds:
                entry = {}
                for job in jobs.build(workload, seed, workdir):
                    problem, text = job.check(job.run())
                    if problem:
                        print(f"{workload} seed {seed} {job.name}: {problem}", file=sys.stderr)
                        return 1
                    entry[job.name] = run._digest(text)
                golden.setdefault(workload, {})[jobs.instance_key(workload, seed)] = entry
                print(f"{workload} {jobs.instance_key(workload, seed)}: {len(entry)} jobs", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
