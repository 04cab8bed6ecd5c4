"""The repository benchmark: three workloads driven over the wire against
real ``repro serve`` processes, with an optional traced run that splits
each request's time by layer.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see :mod:`perfbench.run`).  The metric and
layer definitions live in :mod:`perfbench.layers`; the per-workload
drivers in :mod:`perfbench.point_mix`, :mod:`perfbench.analytic` and
:mod:`perfbench.ingest`.
"""
