"""The benchmark's span recorder wraps names as the package binds them: a module
function in every module listed in its entry point's `bound_in`, and a method in
its class's own `__dict__`. A renamed or dropped binding makes `install` raise.
This is why some modules keep imports they do not call themselves:
`adaptive_integral` in `criteria` and `lyapunov`, and `monodromy`,
`evaluate_all` and `find_zero_pair` in `harness`."""

import importlib

from perfbench.spans import ENTRY_POINTS, Recorder, install, uninstall


def _bindings() -> list:
    """(owner, attribute, bound object) of every binding an entry point replaces."""
    out = []
    for entry in ENTRY_POINTS:
        module_name, attr = entry.owner.split(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            out.append((cls, meth, cls.__dict__[meth]))
        else:
            out += [(target, attr, getattr(target, attr)) for target in
                    map(importlib.import_module, entry.bound_in)]
    return out


def test_recorder_installs_every_entry_point_and_restores_the_originals():
    before = _bindings()
    undo = install(Recorder())
    try:
        assert len(undo) == len(before)
        for owner, attr, original in undo:
            wrapped = vars(owner)[attr]
            assert wrapped is not original and wrapped.__wrapped__ is original, (owner, attr)
    finally:
        uninstall(undo)
    assert all(vars(owner)[attr] is value for owner, attr, value in before)
