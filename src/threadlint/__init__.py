"""threadlint: thread-safety analysis of @ThreadSafe Java classes.

Static rules checked per annotated class:
  P1  no escaping           — every field must be private
  P2  safe publication      — every field default-initialized, final, or volatile
  P3  correct synchronization — conflicting accesses share a common monitor

A trace oracle (threadlint.hboracle) checks every sync order of small
two-thread drivers for data races under the happens-before rules, providing
ground truth for the static verdicts.
"""

__version__ = "0.1.0"
