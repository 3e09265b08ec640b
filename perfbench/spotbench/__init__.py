"""Library of the spot noise benchmark (see ``perfbench/README.md``)."""
