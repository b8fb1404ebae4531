"""Reference implementations the identity tests compare production against.

Each stage of the pipeline has one production implementation in
``src/``: the columnar stats pass (:func:`repro.engine.batch_group_stats_columns`)
and the CSR samplers (:mod:`repro.engine.samplers`).  The modules here
keep the label-level implementations they replaced, so the identity
suites can still check production against them byte for byte:

* :mod:`oracles.stats` — the per-group dict-of-sets sweep
  (:func:`~oracles.stats.compute_group_stats`), plus the row-form helpers
  :func:`~oracles.stats.batch_group_stats` and
  :func:`~oracles.stats.group_stats` over the production pass;
* :mod:`oracles.random_walk` and :mod:`oracles.random_sets` — the
  label-level random-walk, uniform, BFS-ball and forest-fire samplers
  over a mutable :class:`~repro.graph.ugraph.Graph` or
  :class:`~repro.graph.digraph.DiGraph`;
* :mod:`oracles.seeds` — their child seeds, from numpy's own
  ``SeedSequence`` spawn rather than production's port of it.

Nothing in ``src/`` imports them.  Under pytest ``tests/`` is on
``sys.path``, so a test imports them as ``from oracles.stats import
compute_group_stats``.  networkx stays the independent oracle for the
statistics themselves.
"""
