"""The repository's benchmark of the autonomic MAPE loop (see README.md)."""
