"""dprlint — static protocol-invariant & determinism analysis.

The static counterpart of :mod:`repro.core.audit`: where the auditor
checks that the §4.3 invariants hold *at runtime*, dprlint checks at
review time that the code cannot break the preconditions those
invariants (and the sim kernel's exact-reproducibility promise) rest
on.  Run it with::

    python -m repro.analysis src            # lint the tree, exit 1 on findings
    python -m repro.analysis --list-rules   # rule catalog

See ``docs/ANALYSIS.md`` for the rule catalog and suppression syntax.
"""

from repro.analysis.cli import main
from repro.analysis.framework import Finding, all_rules, run_lint

__all__ = ["Finding", "all_rules", "main", "run_lint"]
