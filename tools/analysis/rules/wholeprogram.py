"""Whole-program rules: the invariants no single file can witness.

All three passes run on the :class:`~tools.analysis.project
.ProjectIndex` + :class:`~tools.analysis.callgraph.CallGraph` the
engine builds over the full lint surface:

* ``D201`` — seed provenance: an unseeded ``random.*`` /
  ``np.random.*`` call three frames below ``EMSim.simulate`` breaks
  bit-reproducibility just as surely as one inside it; this pass walks
  the call graph from the configured ``seed-entry-points`` and flags
  every reachable unseeded-RNG site with the path that reaches it.
* ``E601`` — exit-code contracts: the CLI promises the documented
  ``ReproError`` exit-code table (``docs/robustness.md``); this pass
  computes, per CLI entry point, the exception types that can
  propagate all the way out (class-hierarchy-aware ``except``
  subtraction included) and flags the raise sites whose types the
  top-level handler does not convert.
* ``X701`` — IPC hygiene: values returned by ``parallel_map`` /
  ``supervised_map`` workers cross a process boundary; anything that
  is not a NumPy array, a plain JSON-able type, or an explicitly
  allow-listed class (``ipc-allowlist``) is ad-hoc pickle of a custom
  object and gets flagged at the worker's return site.

Each pass is a conservative *under*-approximation where the AST runs
out (computed callables above the dynamic-fanout cap, values bound to
locals): it prefers missing an exotic path to drowning the gate in
false positives, and the per-file rules still cover the local cases.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..callgraph import CallGraph, ExceptionHierarchy, Node
from ..config import path_matches
from ..core import Finding, ProgramRule


def _route(chain: Tuple[Node, ...], limit: int = 5) -> str:
    """Human-readable call path, elided in the middle when long."""
    quals = [qual for _, qual in chain]
    if len(quals) > limit:
        quals = quals[:limit - 1] + ["...", quals[-1]]
    return " -> ".join(quals)


class SeedProvenanceRule(ProgramRule):
    """D201: no unseeded RNG reachable from a seed-critical entry."""

    rule_id = "D201"
    family = "determinism"
    title = "unseeded RNG reachable from a seed-critical entry point"

    def check_program(self, index) -> Iterator[Finding]:
        graph = CallGraph(index)
        wanted = set(index.config.seed_entry_points)
        entries = [node for node in graph.nodes if node[1] in wanted]
        paths = graph.reachable(entries)
        seen: Set[Tuple[str, int, int]] = set()
        for node in sorted(paths):
            info = index.function(*node)
            record = index.by_module[node[0]]
            for line, col, label in info["rng"]:
                key = (record.path, line, col)
                if key in seen:
                    continue
                seen.add(key)
                chain = paths[node]
                yield Finding(
                    path=record.path, line=line, col=col,
                    rule=self.rule_id,
                    message=f"{label} is unseeded/global RNG state "
                            f"reachable from seed-critical entry "
                            f"{chain[0][1]} (path: {_route(chain)}); "
                            f"traces must be a pure function of the "
                            f"seed — plumb a seeded generator (or "
                            f"repro.parallel.spawn_seed) down this "
                            f"path instead")


class ExitContractRule(ProgramRule):
    """E601: CLI entry points keep the documented exit-code table."""

    rule_id = "E601"
    family = "contracts"
    title = "exception escapes a CLI entry without a documented exit code"

    def _entries(self, index, graph: CallGraph) -> List[Node]:
        entries = []
        for node in graph.nodes:
            module, qual = node
            record = index.by_module[module]
            if not path_matches(record.path, index.config.cli_modules):
                continue
            if "." in qual:
                continue
            if qual == "main" or qual.startswith("_cmd_"):
                entries.append(node)
        return sorted(entries)

    def check_program(self, index) -> Iterator[Finding]:
        graph = CallGraph(index)
        entries = self._entries(index, graph)
        if not entries:
            return
        escapes = graph.escapes()
        hierarchy = ExceptionHierarchy(index)
        handled = set(index.config.cli_handled_exceptions)
        exempt = set(index.config.cli_exempt_escapes)
        sites: Dict[Tuple[str, int, str],
                    Tuple[List[str], Tuple[Node, ...]]] = {}
        for entry in entries:
            for name in sorted(escapes[entry]):
                if name in exempt:
                    continue
                if hierarchy.ancestors(name) & handled:
                    continue
                chain, line = graph.escape_chain(escapes, entry, name)
                if line is None:
                    continue
                raise_module = chain[-1][0]
                path = index.by_module[raise_module].path
                key = (path, line, name)
                if key in sites:
                    sites[key][0].append(entry[1])
                else:
                    sites[key] = ([entry[1]], tuple(chain))
        for path, line, name in sorted(sites):
            entry_names, chain = sites[(path, line, name)]
            yield Finding(
                path=path, line=line, col=0, rule=self.rule_id,
                message=f"{name} raised here can escape the CLI entry "
                        f"point(s) {', '.join(sorted(set(entry_names)))} "
                        f"(path: {_route(chain)}) with no exit code in "
                        f"the documented ReproError table; raise a "
                        f"ReproError subclass or catch-and-convert it "
                        f"on that path (docs/robustness.md)")


class IpcHygieneRule(ProgramRule):
    """X701: worker return values must survive the IPC boundary."""

    rule_id = "X701"
    family = "ipc"
    title = "custom class crosses the worker boundary un-allow-listed"

    #: how many resolved-call hops to chase through a worker's returns.
    MAX_DEPTH = 5

    def check_program(self, index) -> Iterator[Finding]:
        graph = CallGraph(index)
        allow = set(index.config.ipc_allowlist)
        emitted: Set[Tuple[str, int, str]] = set()
        for module in index.modules():
            summary = index.summary(module)
            for qual in sorted(summary["functions"]):
                info = summary["functions"][qual]
                for _, wkind, wtarget in info["fanouts"]:
                    workers = graph.resolve_callable(
                        wkind, wtarget, cls=info.get("cls"),
                        module=module)
                    for worker in sorted(set(workers)):
                        yield from self._audit_worker(
                            index, graph, worker, allow, emitted)

    def _audit_worker(self, index, graph: CallGraph, worker: Node,
                      allow: Set[str],
                      emitted: Set[Tuple[str, int, str]]
                      ) -> Iterator[Finding]:
        worker_qual = worker[1]
        stack: List[Tuple[Node, int]] = [(worker, 0)]
        visited: Set[Node] = set()
        while stack:
            node, depth = stack.pop()
            if node in visited or depth > self.MAX_DEPTH:
                continue
            visited.add(node)
            info = index.function(*node)
            for line, kind, value in info["returns"]:
                if kind == "ref":
                    resolved = index.resolve(value)
                    if resolved is None:
                        continue  # external call: numpy etc. are fine
                    rkind, rmodule, rqual = resolved
                    if rkind == "class":
                        bare = rqual.split(".")[-1]
                        if bare in allow:
                            continue
                        path = index.by_module[node[0]].path
                        key = (path, line, bare)
                        if key in emitted:
                            continue
                        emitted.add(key)
                        yield Finding(
                            path=path, line=line, col=0,
                            rule=self.rule_id,
                            message=f"pool worker {worker_qual} "
                                    f"returns {bare} (defined in "
                                    f"{rmodule}) across the process "
                                    f"boundary; IPC payloads must be "
                                    f"NumPy arrays, plain JSON-able "
                                    f"types, or a class on the audited "
                                    f"ipc-allowlist")
                    elif rkind == "function":
                        stack.append(((rmodule, rqual), depth + 1))
                else:
                    targets = graph.resolve_callable(
                        kind, value, cls=info.get("cls"),
                        module=node[0])
                    if len(targets) == 1:
                        stack.append((targets[0], depth + 1))
                    # ambiguous dynamic call: opaque by design
