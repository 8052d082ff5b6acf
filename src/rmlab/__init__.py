"""rmlab: a synthetic lab for studying text-only shortcut learning in
multimodal reward models, and for training shortcut-aware ones.

The package root imports nothing, so ``python -m rmlab.cli`` loads numpy only
in the verbs that compute; import the modules themselves (``rmlab.envs``,
``rmlab.training``, ...)."""

__version__ = "0.1.0"
