"""Workbench for the algebraic theory of dynamic threads.

Layers, bottom up:

* :mod:`dynthreads.tids`: parameter contexts and compound thread IDs as text;
* :mod:`dynthreads.terms`: fork/wait/stop/act terms with binders, the two
  substitutions, and the eight defining equations;
* :mod:`dynthreads.posets`: labelled posets with holes, interpretation,
  reification to normal forms, and the equality decision procedure;
* :mod:`dynthreads.lang`: a small fine-grain call-by-value concurrent
  language with its type system;
* :mod:`dynthreads.machine`: the labelled transition system, schedulers,
  and observation of runs as pomsets;
* :mod:`dynthreads.denote`: denotations of first-order programs as theory
  terms, adequacy checks, and the closing gadget constructions;
* :mod:`dynthreads.cli`: command-line front end.
"""

__version__ = "0.1.0"
