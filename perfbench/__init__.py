"""Repository benchmark of the VirtualCluster simulator (see run.py)."""
