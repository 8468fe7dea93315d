#!/usr/bin/env python3
"""The bytecode tier, step by step: compile, cache, execute, verify parity.

Script execution is tiered: source text hits the script cache, whose one
entry per digest holds the parsed program and the bytecode lowered from it
(constant folding + lowering), and the bytecode runs on the dispatch-loop
VM with monomorphic inline caches on member-access sites. The AST walker
stays available as the reference engine -- ``--ast-walker`` on the
scenario CLI, ``script_engine="walker"`` in the API -- and this demo shows
the two agreeing observation for observation:

1. compile a script-heavy source and disassemble a slice of the bytecode;
2. run it on both engines -- same value, and the VM reports its
   inline-cache hit rate;
3. show that an IC hit still *mediates*: flipping a host object's policy
   denies the very next access through a warm inline cache;
4. replay a seeded scenario suite under both engines and compare the
   canonical reports byte for byte (the ``--ast-walker`` differential).

Run with::

    PYTHONPATH=src python examples/bytecode_vm.py
"""

from __future__ import annotations

from repro.scenarios.engine import run_suite
from repro.scenarios.model import canonical_spec_json
from repro.scenarios.runner import ScenarioRunner
from repro.scripting.cache import ScriptCache
from repro.scripting.errors import RuntimeScriptError
from repro.scripting.interpreter import HostObject, Interpreter
from repro.scripting.vm import VirtualMachine

SOURCE = """
var rows = [];
for (var i = 0; i < 20; i = i + 1) {
    rows.push({id: i, weight: i % 5});
}
var score = 0;
for (var i = 0; i < rows.length; i = i + 1) {
    score = score + rows[i].weight;
}
score;
"""


class GuardedSensor(HostObject):
    """A mediating host object whose policy can be revoked at runtime."""

    host_name = "GuardedSensor"

    def __init__(self) -> None:
        self.allowed = True

    def js_get(self, name: str):
        if not self.allowed:
            raise RuntimeScriptError(f"access to {name!r} denied by policy")
        return 42.0


def main() -> None:
    # 1. source -> script cache entry (keyed on the SHA-256 digest) -> bytecode.
    cache = ScriptCache()
    code = cache.code_for(SOURCE)
    listing = code.disassemble().splitlines()
    print("bytecode (first 12 instructions):")
    for line in listing[:12]:
        print(f"  {line}")
    print(f"  ... {len(listing)} instructions, {len(code.constants)} pooled constants")

    # 2. both engines, one answer; the VM also reports cache effectiveness.
    walker = Interpreter().run(cache.parse(SOURCE))
    vm = VirtualMachine()
    compiled = vm.run(code)
    assert walker.value == compiled.value, "engines must agree"
    print(f"\nwalker value: {walker.value}  VM value: {compiled.value}")
    print(f"VM inline-cache hit rate: {vm.ic_hit_rate * 100.0:.1f}% "
          f"({vm.ic_hits} hits / {vm.ic_misses} misses)")
    assert len(cache) == 1, "program and bytecode share one cache entry"

    # 3. a warm inline cache never skips mediation: revoke and re-run.
    sensor = GuardedSensor()
    probe = cache.code_for("sensor.reading;")
    assert VirtualMachine({"sensor": sensor}).run(probe).value == 42.0
    sensor.allowed = False
    denied = VirtualMachine({"sensor": sensor}).run(probe)
    print(f"\nafter revocation (same compiled code, warm IC): {denied.error}")
    assert denied.failed, "the warm inline cache must still mediate"

    # 4. the --ast-walker differential, as a library call: byte-identical
    #    canonical reports from the same seeded suite under both engines.
    reports = {}
    for engine in ("vm", "walker"):
        suite = run_suite(seed=42, count=10, runner=ScenarioRunner(script_engine=engine))
        reports[engine] = canonical_spec_json(suite.parity_dict())
        print(f"\n[{engine}] {suite.summary().splitlines()[1].strip()}")
    assert reports["vm"] == reports["walker"], "reports must be byte-identical"
    print("\ncanonical suite reports are byte-identical under both engines")


if __name__ == "__main__":
    main()
