"""Reference implementations the identity tests compare production against.

Each stage of the pipeline has one production implementation in
``src/``: the columnar stats pass (:func:`repro.engine.batch_group_stats_columns`),
each scoring function's ``score_batch`` and the CSR samplers
(:mod:`repro.engine.samplers`).  The modules here keep the per-group
and label-level implementations they replaced, so the identity suites
can still check production against them byte for byte:

* :mod:`oracles.stats` — the per-group dict-of-sets sweep
  (:func:`~oracles.stats.compute_group_stats`), plus the row-form helpers
  :func:`~oracles.stats.batch_group_stats` and
  :func:`~oracles.stats.group_stats` over the production pass;
* :mod:`oracles.scoring` — the scalar ``__call__(GroupStats)`` twin of
  every scoring function, the one-group
  :class:`~oracles.scoring.GroupStats` row they read, and
  :func:`~oracles.scoring.row`, which cuts a row out of a production
  batch;
* :mod:`oracles.random_walk` and :mod:`oracles.random_sets` — the
  label-level random-walk, uniform, BFS-ball and forest-fire samplers
  over a mutable :class:`~repro.graph.ugraph.Graph` or
  :class:`~repro.graph.digraph.DiGraph`;
* :mod:`oracles.seeds` — their child seeds, from numpy's own
  ``SeedSequence`` spawn rather than production's port of it.

Nothing in ``src/`` imports them.  Under pytest ``tests/`` is on
``sys.path``, so a test imports them as ``from oracles.stats import
compute_group_stats``; ``benchmarks/bench_columnar_scoring.py`` puts
``tests/`` on its path itself.  networkx stays the independent oracle for the
statistics themselves.
"""
