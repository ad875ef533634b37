"""Exact decision procedures, shortcut conditions, and closed-form witness
constructions for graphs that admit both a half-size cut and a half-size
induced subgraph, plus a balanced-Ramsey brute forcer and a max-cut to
exact-cut reducer.

The package loads lazily (PEP 562), so ``import balanceable.cli`` loads
only the modules its command runs.  The first public name asked of the
package, or ``__all__``, imports all seven modules, binds ``__all__`` and
every public name here, as star imports of the seven would, and removes the
hook that did it."""

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [
        import_module(f"{__name__}.{module}")
        for module in ("conditions", "families", "graphs", "oracle", "ramsey", "reduction", "witnesses")
    ]
    names = globals()
    names["__all__"] = [public for module in modules for public in module.__all__]
    for module in modules:
        names.update((public, getattr(module, public)) for public in module.__all__)
    # every name is bound now; a module without this hook also keeps the
    # interpreter's specialised (fast) loads of its attributes
    names.pop("__getattr__", None)
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return names[name]
