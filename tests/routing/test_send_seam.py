"""Every control message leaves a protocol through the base class.

``RoutingProtocol._send``/``_flood`` and ``SessionProtocol._send_reliable``
are the only places that hand a message to the network and account it.
Keeping it that way is what lets one wrapper at that seam (control-plane
fault injection, say) cover every protocol.  Likewise the on-demand
discovery engine exists once, in ``routing/reactive.py``, and the reliable
session plumbing once, in ``routing/base.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.routing

ROUTING = Path(repro.routing.__file__).parent
MODULES = sorted(ROUTING.glob("*.py"))

#: Calls that put a message on the wire, account one, or open a session.
SEND_CALLS = {"send_control", "_record_message", "ReliableChannel"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _called_names(tree: ast.Module) -> list[tuple[str, int]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SEND_CALLS:
                found.append((name, node.lineno))
    return found


def _defined(tree: ast.Module) -> dict[str, set[str]]:
    """Class name -> names it defines (methods), plus module-level classes
    under the key ``""``."""
    out: dict[str, set[str]] = {"": set()}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out[""].add(node.name)
            out[node.name] = {
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            }
    return out


def test_the_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"base.py", "reactive.py", "aodv.py", "dsr.py", "bgp.py", "dual.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_base_class_sends(path):
    calls = _called_names(_tree(path))
    if path.name == "base.py":
        assert {name for name, _ in calls} == SEND_CALLS
    else:
        assert calls == [], f"{path.name} sends outside the base class: {calls}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_reactive_defines_a_discovery(path):
    classes = _defined(_tree(path))[""]
    assert ("_Discovery" in classes) == (path.name == "reactive.py")


@pytest.mark.parametrize(
    "module, cls, shared",
    [
        ("aodv.py", "AodvProtocol", {"_buffer", "_retry", "_release", "pending_data_packets"}),
        ("dsr.py", "DsrProtocol", {"_buffer", "_retry", "_release", "pending_data_packets"}),
        ("bgp.py", "BgpProtocol", {"_deliver_to", "_close_session", "_send_reliable"}),
        ("dual.py", "DualProtocol", {"_deliver_to", "_close_session", "_send_reliable"}),
    ],
)
def test_shared_mechanisms_are_not_redefined(module, cls, shared):
    methods = _defined(_tree(ROUTING / module))[cls]
    assert not methods & shared, f"{cls} redefines {sorted(methods & shared)}"
