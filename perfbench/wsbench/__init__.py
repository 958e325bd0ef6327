"""Steady end-to-end and per-layer benchmark of the waferscale-switch
reproduction (see ``perfbench/README.md``)."""
