"""Symbolic coding and structural stability for expanding group actions on
metric spaces: concrete actions, expansion data, codes and rays,
hyperbolicity certificates, boundary coding maps, and conjugacies for
perturbed actions."""

__version__ = "0.1.0"
