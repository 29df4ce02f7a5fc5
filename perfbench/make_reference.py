"""Write reference.json: one pass and the slow-route check of every workload at the default seed.

    python3 perfbench/make_reference.py

Regenerate it only together with a change that is meant to change the
program's outputs, and say so in that change.
"""

import json
import shutil
import sys
import time

import worker  # pins the environment before numpy is imported


def main():
    worker.import_program()
    import workloads

    seed = workloads.DEFAULT_SEED
    doc = {"seed": seed, "workloads": {}}
    for name, wl in workloads.WORKLOADS.items():
        workdir = worker.OUT_DIR / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            m = worker.measure(wl, seed, 0.0, None, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if m["failed"]:
            raise SystemExit(f"{name}: {m['failures']}")
        doc["workloads"][name] = worker.reference_entry(m)
        print(f"{name}: {len(m['units'])} units, {m['pass_s'][0]:.2f}s", flush=True)
    worker.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    rc = main()
    print(f"wrote {worker.REFERENCE} in {time.perf_counter() - t0:.1f}s")
    sys.exit(rc)
