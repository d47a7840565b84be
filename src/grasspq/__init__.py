"""Exact rewrite-system algebra for the two-parameter deformed Grassmann
matrix group and supergroup."""
