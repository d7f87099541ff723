"""The repository's benchmark: three workloads driven through the public API.

``python3 perf/run.py --workload {sweep,serve,solve} --seed N --seconds S
--trace {0,1}`` runs one workload and prints, as its last stdout line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from a run whose first half
is untraced and whose second half is traced (the difference is
``trace.overhead_pct``).  The line before it is a JSON report with host
facts, sample counts, output checks and the per-workload detail that is
not a metric of every workload.
"""
