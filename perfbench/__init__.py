"""End-to-end wall-clock benchmark of the FeTCAM simulator (see README.md)."""
