"""End-to-end benchmark: dataset to built store to served answer to appended batch.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload build-dense --seed 1 --seconds 12 --trace 0

See ``perfbench/README.md`` for the workloads and metrics.
"""
