"""REP009: no blocking calls reachable from async code.

The wire server runs on one event loop; a single blocking call inside
any coroutine stalls *every* connection.  This rule walks the call graph
from every ``async def`` in scope and flags blocking operations --
``time.sleep``, synchronous socket/file I/O, subprocess spawns, and a
blocking pipe receive (``recv_bytes``/``recv``, where a resident drain
waits for its workers) -- whether they appear in the coroutine body
itself or in a plain function reached through any confidently resolved
call chain.  CPU work such as a serial service drain is not blocking in
this sense: it holds the GIL on any thread, so it runs on the loop.

The sanctioned escape hatch is an executor hop: call sites spelled
inside the arguments of ``loop.run_in_executor(...)`` or
``asyncio.to_thread(...)`` are exempt, and chains are not followed
through such sites (the callee runs on a worker thread).  Traversal is
bounded in depth and memoized; unresolved call sites end a chain (the
confident-or-silent stance of :mod:`repro.lint.analysis`).  Calls on
attributes of other objects are among them: a chain through
``self.service.*`` is not followed into the service, so the rule cannot
see that the wire server dispatches a resident drain and waits for the
pipes before collecting.  That order is pinned by a test instead (a
PING answered while a drain is outstanding).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro.lint.analysis.callgraph import CallSite
from repro.lint.analysis.symbols import FunctionInfo
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.analysis.project import Project

__all__ = ["AsyncSafetyRule"]

#: Call-chain depth bound from an async entry.
MAX_DEPTH = 8

#: Exact dotted spellings that block the event loop.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.waitpid",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "open",
    }
)

#: Dotted suffixes that block: a ``multiprocessing`` pipe receive
#: (``conn.recv_bytes()``, ``conn.recv()``) waits until the other end
#: writes, so async code awaits the pipe's readability first.
BLOCKING_SUFFIXES = ("recv_bytes", "recv")


def _is_blocking(name: Optional[str]) -> bool:
    if name is None:
        return False
    if name in BLOCKING_CALLS:
        return True
    return any(
        name == suffix or name.endswith(f".{suffix}")
        for suffix in BLOCKING_SUFFIXES
    )


@register
class AsyncSafetyRule(Rule):
    """Flag blocking calls reachable from coroutines in scope."""

    rule_id = "REP009"
    title = "blocking call reachable from async code"
    rationale = (
        "The admission server multiplexes every connection on one event "
        "loop; a blocking call anywhere in a coroutine's call chain "
        "stalls all of them. Wait for readiness on the loop "
        "(loop.add_reader) or hop through loop.run_in_executor / "
        "asyncio.to_thread."
    )
    default_scope = ("repro/net/*",)
    requires_analysis = True

    def check_project(self, project: "Project") -> None:
        #: site identity -> (entry, chain) of the first reporting chain;
        #: one finding per blocking site keeps repeated helpers readable.
        reported: Set[Tuple[str, int, int]] = set()
        for entry, _ctx in project.functions_in_scope(type(self)):
            if not entry.is_async:
                continue
            self._walk(
                project,
                entry,
                entry,
                [entry.name],
                {entry.qualname},
                0,
                reported,
            )

    def _walk(
        self,
        project: "Project",
        entry: FunctionInfo,
        fn: FunctionInfo,
        chain: List[str],
        visited: Set[str],
        depth: int,
        reported: Set[Tuple[str, int, int]],
    ) -> None:
        if depth > MAX_DEPTH:
            return
        for site in project.graph.callees(fn.qualname):
            if site.in_executor:
                continue  # sanctioned hop: runs on a worker thread
            if _is_blocking(site.name):
                key = (fn.path, site.line, site.col)
                if key not in reported:
                    reported.add(key)
                    self._report(project, fn, site, entry, chain)
                continue
            if site.target is None or site.target in visited:
                continue
            callee = project.table.functions.get(site.target)
            if callee is None:
                continue
            self._walk(
                project,
                entry,
                callee,
                chain + [callee.name],
                visited | {site.target},
                depth + 1,
                reported,
            )

    def _report(
        self,
        project: "Project",
        fn: FunctionInfo,
        site: CallSite,
        entry: FunctionInfo,
        chain: List[str],
    ) -> None:
        ctx = project.contexts.get(fn.path)
        if ctx is None:
            return
        path = " -> ".join(chain + [f"{site.name}()"])
        ctx.findings.append(
            Finding(
                path=ctx.display_path,
                line=site.line,
                col=site.col,
                rule_id=self.rule_id,
                message=(
                    f"blocking call {site.name}() is reachable from "
                    f"async def {entry.name}() ({path}); wait for "
                    f"readiness with loop.add_reader, or hop through "
                    f"loop.run_in_executor(None, ...) or asyncio.to_thread"
                ),
            )
        )
