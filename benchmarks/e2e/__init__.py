"""End-to-end benchmark of the category-tree system (see README.md)."""
