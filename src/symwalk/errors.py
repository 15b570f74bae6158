"""Exceptions shared across layers, kept free of heavy imports so the CLI
can catch them without loading numpy or the brute-force oracle."""


class ResourceGuardError(RuntimeError):
    """A requested spectrum, oracle computation or simulation exceeds the desk-scale size caps."""
