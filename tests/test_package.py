"""The package namespace is declared once: by the `__all__` of each module."""

import types

import needlets

# the modules that declare a public surface; `cli` declares none and is not re-exported
MODULES = [value for value in vars(needlets).values()
           if isinstance(value, types.ModuleType) and hasattr(value, "__all__")]


def test_public_names_are_the_module_lists():
    listed = {}
    for module in MODULES:
        for name in module.__all__:
            # a star import would let the later module shadow the earlier silently
            assert name not in listed, f"{name} is in {listed.get(name)} and {module.__name__}"
            listed[name] = module.__name__
            assert getattr(needlets, name) is getattr(module, name)
    public = {name for name, value in vars(needlets).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(MODULES) == 9
    assert public == set(listed)
