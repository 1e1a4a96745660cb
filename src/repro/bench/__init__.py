"""Benchmark layer regenerating every table and figure in §7:
``figures`` (the sweeps, written once), ``harness`` (one experiment),
``artifacts`` (``BENCH_<figure>.json``), ``report`` (text rendering)
and the ``python -m repro.bench`` command line."""
