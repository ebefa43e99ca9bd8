"""cascademine: influence-cascade mining and growth prediction.

Pipeline: ingest review/tip event logs constrained by a friendship graph,
build per-business influence cascades, census their topologies, fit the size
distribution, and predict long vs short cascades from the first k events.

Use the ``cascademine`` command or import from a submodule: the package exports no names.
"""
