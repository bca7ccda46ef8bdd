"""herdbench's own tests, run by ``python3 -m herdbench selftest``."""
