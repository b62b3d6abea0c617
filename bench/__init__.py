"""The repo benchmark: five serving workloads measured end to end and per layer.

Run it from the repo root (``python3 -m bench run``); ``bench/README.md`` is
the glossary of workloads and metrics, ``BENCHMARK.json`` the driver contract.
The package drives the program only through its public surface and keeps
every generated file out of the tree.
"""
