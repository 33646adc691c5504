"""Generalized K4-hypercube reliability toolkit.

Construct family members, evaluate the exact closed-form reliability
parameters, and verify them against brute-force search at desk scale.
Each layer loads on first use (PEP 562): `import k4rel` alone loads none.
"""

__all__ = ["closed_form", "cube_graph", "oracle"]


def __getattr__(name: str):
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
