"""langlab: desk-scale experiments on learning natural vs. linearly
transformed languages with miniature language models.

The package binds no name but __version__: each module's __all__ is its
Python API, imported from that module (``from langlab.harness import
run_experiment``)."""

__version__ = "0.1.0"
