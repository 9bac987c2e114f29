"""The repository benchmark: host-time workloads with a traced layer split.

``python3 bench/run.py`` runs one workload (see its docstring);
``python -m bench`` runs them all and writes one record.  See
``bench/README.md``.
"""
