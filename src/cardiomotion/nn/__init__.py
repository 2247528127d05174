"""Reverse-mode autodiff engine, differentiable field ops, and networks.

Import from the submodules: ``tensor`` (the engine and its primitives),
``fieldops`` (field primitives), ``networks`` and ``params`` (parameter
stores, Adam and checkpoints).
"""
