"""Regenerate ``wsbench/references.json``, the committed output references.

Netsim references come from the numpy engine, which runs every shape
the builders produce (the radix-256 point included); DCN and API
references from the serial executor. Run from the repository root::

    python3 perfbench/make_references.py

Only regenerate when the program's simulated behaviour is meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    cache = ROOT / ".perfbench_out" / "references-cache"
    shutil.rmtree(cache, ignore_errors=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)

    from repro import api
    from repro.dcn import run_dcn
    from repro.experiments.runner import run_experiments
    from repro.netsim.network import waferscale_clos_network
    from repro.netsim.packet import reset_packet_ids
    from repro.netsim.sim import run_sim

    from wsbench import scale, serve
    from wsbench.inputs import N_VARIANTS, make_inputs, make_plan
    from wsbench.ops import REFERENCES_PATH, dcn_summary, netsim_summary
    from wsbench.suite import suite_digests

    refs = {"suite": suite_digests(run_experiments(None, fast=True, jobs=1))}
    refs["dcn_smoke"] = {
        fidelity: dcn_summary(run_dcn(scale.smoke_config(fidelity), executor="serial"))
        for fidelity in ("cycle", "hybrid", "flow")
    }
    refs["variants"] = {}
    for variant in range(N_VARIANTS):
        inputs = make_inputs(variant, make_plan("scale_sim", 30))
        netsim_seed, dcn_seed, api_seed = (
            inputs.netsim_seed, inputs.dcn_big_seed, inputs.api_seed
        )
        entry = {}
        for point in (scale.IDLE_POINT, scale.LOADED_POINT, scale.RADIX256_POINT):
            name, terminals, radix, load, _, _ = point
            network = waferscale_clos_network(terminals, radix)
            reset_packet_ids()
            stats = run_sim(network, "uniform", load,
                            scale.netsim_config(point, netsim_seed), engine="numpy")
            entry[name] = netsim_summary(stats)
        for pattern in ("uniform", "dp_allreduce"):
            result = run_dcn(scale.table8_config(pattern, dcn_seed), executor="serial")
            entry[f"dcn.table8_{pattern}"] = dcn_summary(result)
        queries = serve.api_queries(api_seed)
        reset_packet_ids()
        entry["api.simulate"] = api.execute(
            queries["simulate"], engine="numpy", cache=None
        )["result"]["points"]
        entry["api.dcn"] = serve.dcn_response_summary(
            api.execute(queries["dcn"], cache=None)["result"]
        )
        reset_packet_ids()
        entry["api.simulate_repeat"] = api.execute(
            serve.repeat_probe_query(api_seed), engine="numpy", cache=None,
        )["result"]["points"]
        refs["variants"][str(variant)] = entry
        print(f"variant {variant} done", flush=True)
    REFERENCES_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(cache, ignore_errors=True)
    print(f"wrote {REFERENCES_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
