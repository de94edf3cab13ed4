"""Storage-backed purchase policies: fit price laws, run the online threshold
policy against offline oracles, bound its regret, and size the storage."""

__version__ = "0.1.0"
