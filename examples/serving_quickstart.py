"""Serving quickstart: amortize one compile across a request stream.

Compiling a stencil for the Sparse Tensor Cores is O(1) in problem size
(paper §4.2), so a serving runtime can compile once per distinct stencil
configuration and fuse same-plan requests into batched SpTC passes.  This
example pushes a mixed-spec closed-loop trace through
:class:`repro.serve.StencilService` and verifies every output against the
one-shot `Spider` pipeline.

Run:  python examples/serving_quickstart.py
"""

import time

import numpy as np

from repro import Spider, StencilService
from repro.stencil import closed_loop_stream, serving_workloads


def main() -> None:
    # 1. a serving traffic mix: four stencils, small grids, 500 requests,
    #    with a popularity skew (heat2d is the hot spec)
    workloads = serving_workloads(
        ["heat2d", "blur2d", "wave2d", "wave1d"], size_2d=(48, 48)
    )
    requests = list(
        closed_loop_stream(
            workloads, 500, seed=0, weights=[0.55, 0.2, 0.15, 0.1]
        )
    )
    print(f"trace: {len(requests)} requests over "
          f"{len(workloads)} stencil specs")

    # 2. serve the trace: 4 sharded workers, each owning a warm plan cache;
    #    same-spec requests that queue while a worker is busy fuse into
    #    one batch (at most 8)
    with StencilService(workers=4, max_batch_size=8) as svc:
        start = time.perf_counter()
        handles = svc.submit_many((r.spec, r.grid) for r in requests)
        svc.drain()
        elapsed = time.perf_counter() - start
        stats = svc.stats()
        print(f"\nserved {len(requests)} requests in {elapsed:.3f}s "
              f"({len(requests) / elapsed:.0f} req/s)\n")
        print(svc.format_report())

    # 3. every served output is bit-identical to a per-request Spider.run
    spiders = {}
    mismatches = 0
    for r, h in zip(requests, handles):
        sp = spiders.setdefault(id(r.workload), Spider(r.spec))
        if not np.array_equal(h.result(), sp.run(r.grid)):
            mismatches += 1
    print(f"\nbit-identical to per-request Spider.run: "
          f"{len(requests) - mismatches}/{len(requests)}")
    assert mismatches == 0
    assert stats.cache_hit_rate > 0.9


if __name__ == "__main__":
    main()
