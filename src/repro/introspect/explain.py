"""Query-plan-style rendering of a :class:`~repro.introspect.trace.RunTrace`.

``EXPLAIN`` for iterative ML: the renderer turns one run's trace into the
tree a database engineer would expect from a query plan — outputs at the
top, inputs indented below, every node carrying its reuse/recompute/prune
verdict, the cost numbers that drove it, its storage tier and codec, and a
``✂`` marker wherever the min-cut boundary priced it.  Because the tree is
built purely from the trace (node parents are recorded per node), a trace
reloaded from its JSONL file renders *identically* to the in-memory one.

Two formats:

* :meth:`ExplainRenderer.render_ascii` — the human surface behind
  ``repro explain`` and ``HelixSession.explain()``;
* :meth:`ExplainRenderer.render_json` — the machine surface (the full trace
  dictionary plus the nested plan tree), behind ``repro explain --json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.introspect.trace import NodeTrace, RunTrace

#: Verdict markers: recompute / reuse / prune.  One character each so the
#: tree columns stay aligned; the legend line spells them out.
_MARKS = {"compute": "●", "load": "○", "prune": "∅"}

#: ANSI colors for the optional colored rendering (verdict → SGR code).
_COLORS = {"compute": "33", "load": "32", "prune": "90"}

#: Run options older traces record that ``RunConfig`` no longer declares,
#: with the default each had (every write now uses the ``auto`` codec rule,
#: and ``memory_tier_mb`` alone picks the store).
_RETIRED_OPTION_DEFAULTS = {"store_backend": None, "codec": "auto"}


def _seconds(value: float) -> str:
    """Deterministic, compact seconds formatting (stable across JSON round trips)."""
    return f"{value:.6g}s"


def _bytes(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.6g}GB"
    if value >= 1e6:
        return f"{value / 1e6:.6g}MB"
    if value >= 1e3:
        return f"{value / 1e3:.6g}KB"
    return f"{value:.6g}B"


class ExplainRenderer:
    """Renders one :class:`RunTrace` as an annotated plan tree.

    Parameters
    ----------
    trace:
        The trace to render.  Everything needed (structure included) lives in
        the trace itself, so a JSONL-reloaded trace renders identically.
    """

    def __init__(self, trace: RunTrace) -> None:
        self.trace = trace

    # ------------------------------------------------------------------
    # Roots and structure
    # ------------------------------------------------------------------
    def roots(self) -> List[str]:
        """Tree roots: declared outputs first, then any sink nobody consumes."""
        trace = self.trace
        roots = [name for name in trace.outputs if name in trace.nodes]
        if not roots:
            roots = sorted(name for name, entry in trace.nodes.items() if entry.output)
        consumed: Set[str] = set()
        for entry in trace.nodes.values():
            consumed.update(entry.parents)
        for name in sorted(trace.nodes):
            if name not in consumed and name not in roots:
                roots.append(name)
        return roots

    # ------------------------------------------------------------------
    # ASCII rendering
    # ------------------------------------------------------------------
    def render_ascii(self, color: bool = False) -> str:
        trace = self.trace
        lines: List[str] = []
        title = f"plan {trace.workflow or '?'}  iteration {trace.iteration}"
        if trace.description:
            title += f'  "{trace.description}"'
        lines.append(title)
        context = (
            f"system={trace.system}  backend={trace.backend or 'serial'}"
            f"x{trace.parallelism}  partitions={trace.partitions}"
        )
        if trace.store_backend:
            context += f"  store={trace.store_backend}"
        if trace.tenant:
            context += f"  tenant={trace.tenant}"
        if trace.incremental:
            context += "  incremental=on"
        lines.append(context)
        if trace.recomputation_policy or trace.materialization_policy:
            lines.append(
                f"policies: recomputation={trace.recomputation_policy or '?'}  "
                f"materialization={trace.materialization_policy or '?'}"
            )
        if trace.options:
            # Imported here: repro.core imports this module at package import.
            from repro.core.config import RunConfig

            # A trace keeps the options it ran under, including ones later
            # versions retired; those render against their old defaults.
            defaults = {**_RETIRED_OPTION_DEFAULTS, **RunConfig().as_dict()}
            changed = [
                f"{name}={value}" for name, value in trace.options.items()
                if name not in defaults or value != defaults[name]
            ]
            lines.append("options: " + ("  ".join(changed) or "(all defaults)"))
        if trace.plan_cache:
            planning = f"planning:  plan-cache={trace.plan_cache}"
            fused_members = sum(1 for entry in trace.nodes.values() if entry.fused_group >= 0)
            if fused_members:
                fused_groups = len({
                    entry.fused_group for entry in trace.nodes.values() if entry.fused_group >= 0
                })
                planning += f"  fused={fused_members} nodes in {fused_groups} group(s)"
            lines.append(planning)

        n_compute = len(trace.nodes_in_state("compute"))
        n_load = len(trace.nodes_in_state("load"))
        n_prune = len(trace.nodes_in_state("prune"))
        summary = f"verdicts: {n_compute} compute / {n_load} load / {n_prune} prune"
        if trace.plan_cost is not None:
            summary += f"  est.plan.cost={_seconds(trace.plan_cost)}"
        if trace.cut_value is not None:
            summary += f"  min-cut={trace.cut_value:.6g}"
        if trace.wall_clock_seconds > 0.0:
            summary += f"  wall={_seconds(trace.wall_clock_seconds)}"
        lines.append(summary)
        if trace.deltas:
            heading = "input deltas:"
            if trace.chunk_count:
                heading += f"  run chunks={trace.chunk_count} (partitions={trace.partitions})"
            lines.append(heading)
            for delta in trace.deltas:
                parts = [f"  Δ {delta.node or delta.input_key}: {delta.mode or '?'}"]
                parts.append(
                    f"{delta.clean_chunks} clean / {delta.dirty_chunks} dirty / "
                    f"{delta.new_chunks} new of {delta.chunk_count} chunks"
                )
                if delta.frozen_chunks:
                    parts.append(f"{delta.frozen_chunks} frozen")
                if delta.rebalanced_chunks:
                    parts.append(f"re-balanced into {delta.rebalanced_chunks}")
                if delta.removed_chunks:
                    parts.append(f"{delta.removed_chunks} removed")
                lines.append("  ".join(parts))
        lines.append(f"legend: {_MARKS['compute']} recompute   {_MARKS['load']} reuse (load)   "
                     f"{_MARKS['prune']} pruned   ✂ min-cut boundary")
        lines.append("")

        seen: Set[str] = set()
        for root in self.roots():
            self._render_subtree(root, prefix="", tail=True, top=True, seen=seen,
                                 lines=lines, color=color)

        if trace.cut_edges:
            lines.append("")
            lines.append(f"min-cut boundary ({len(trace.cut_edges)} saturated edges, "
                         f"sum={sum(edge.capacity for edge in trace.cut_edges):.6g}):")
            for edge in trace.cut_edges:
                lines.append(f"  ✂ {edge.source} -> {edge.target}  capacity={edge.capacity:.6g}")
        if trace.waves:
            lines.append("")
            lines.append("waves:")
            for wave in trace.waves:
                lines.append(
                    f"  wave {wave.index}: {len(wave.nodes)} nodes, {wave.n_tasks} tasks"
                    + (f", wall={_seconds(wave.wall_seconds)}" if wave.wall_seconds > 0.0 else "")
                )
        return "\n".join(lines)

    def _render_subtree(
        self,
        name: str,
        prefix: str,
        tail: bool,
        top: bool,
        seen: Set[str],
        lines: List[str],
        color: bool,
    ) -> None:
        connector = "" if top else ("└─ " if tail else "├─ ")
        entry = self.trace.nodes.get(name)
        if entry is None:
            lines.append(f"{prefix}{connector}{name} (not traced)")
            return
        repeat = name in seen
        lines.append(prefix + connector + self._node_line(entry, repeat=repeat, color=color))
        if repeat:
            return
        seen.add(name)
        child_prefix = prefix + ("" if top else ("   " if tail else "│  "))
        parents = entry.parents
        for position, parent in enumerate(parents):
            self._render_subtree(
                parent, prefix=child_prefix, tail=position == len(parents) - 1,
                top=False, seen=seen, lines=lines, color=color,
            )

    def _node_line(self, entry: NodeTrace, repeat: bool = False, color: bool = False) -> str:
        mark = _MARKS.get(entry.state, "?")
        parts = [f"{entry.node} {mark} {entry.state.upper() or '?'}"]
        if repeat:
            parts.append("(shared; shown above)")
            return "  ".join(parts)

        if entry.state == "compute":
            timing = f"compute {_seconds(entry.compute_time)}"
            if entry.chunks_computed or entry.chunks_loaded:
                timing += f" ({entry.chunks_computed} chunks computed, {entry.chunks_loaded} recovered)"
            parts.append(timing)
        elif entry.state == "load":
            timing = f"load {_seconds(entry.load_time)}"
            if entry.chunks_loaded:
                timing += f" ({entry.chunks_loaded} chunks)"
            parts.append(timing)
            if entry.read_tier or entry.read_codec:
                parts.append(f"tier={entry.read_tier or '?'} codec={entry.read_codec or '?'}")
        parts.append(
            f"est[c={_seconds(entry.est_compute_cost)} l={_seconds(entry.est_load_cost)} "
            f"size={_bytes(entry.est_output_size)}{' materialized' if entry.was_materialized else ''}]"
        )
        if entry.reuse_reason:
            parts.append(f"[{entry.reuse_reason}]")
        if entry.delta_strategy:
            delta = (
                f"Δ={entry.delta_strategy}"
                f" {entry.delta_chunks_dirty}/{entry.delta_chunks_total} dirty"
            )
            if entry.delta_strategy == "delta":
                delta += f", {entry.chunks_carried} carried ({entry.chunks_decoded} decoded)"
                if entry.delta_est_savings > 0.0:
                    delta += f" saves~{_seconds(entry.delta_est_savings)}"
            elif entry.delta_reason:
                delta += f" ({entry.delta_reason})"
            parts.append(delta)
        if entry.mat_materialize is not None:
            verdict = "materialize" if entry.mat_materialize else "skip"
            mat = f"mat={verdict}"
            if entry.mat_score is not None and entry.mat_score not in (float("inf"), float("-inf")):
                mat += f" r_i={entry.mat_score:.6g}"
            if entry.mat_materialize:
                destination = "/".join(part for part in (entry.write_tier, entry.write_codec) if part)
                if destination:
                    mat += f" -> {destination}"
                if entry.mat_size:
                    mat += f" ({_bytes(entry.mat_size)})"
            elif entry.mat_reason:
                mat += f" ({entry.mat_reason})"
            parts.append(mat)
        wrote = entry.write_summary()
        if wrote is not None:
            # Encode + write on the clock: a rate far under the codec's norm
            # (pickle: ~100 MB/s) means the value is costly to serialize.
            parts.append(f"wrote {wrote}")
        if entry.fused_group >= 0:
            parts.append(f"fused#{entry.fused_group}")
        if entry.on_cut_boundary:
            parts.append("✂")
        line = "  ".join(parts)
        if color and entry.state in _COLORS:
            line = f"\x1b[{_COLORS[entry.state]}m{line}\x1b[0m"
        return line

    # ------------------------------------------------------------------
    # JSON rendering
    # ------------------------------------------------------------------
    def render_json(self) -> Dict[str, Any]:
        """The full trace dictionary plus the nested plan tree."""
        payload = self.trace.to_json()
        seen: Set[str] = set()
        payload["tree"] = [self._json_subtree(root, seen) for root in self.roots()]
        return payload

    def _json_subtree(self, name: str, seen: Set[str]) -> Dict[str, Any]:
        entry = self.trace.nodes.get(name)
        node: Dict[str, Any] = {"node": name}
        if entry is None:
            node["traced"] = False
            return node
        node["state"] = entry.state
        if name in seen:
            node["ref"] = True
            return node
        seen.add(name)
        node["inputs"] = [self._json_subtree(parent, seen) for parent in entry.parents]
        return node


def render_trace(trace: RunTrace, fmt: str = "ascii", color: bool = False):
    """Convenience: render ``trace`` as ``"ascii"`` text or a ``"json"`` dict."""
    renderer = ExplainRenderer(trace)
    if fmt == "json":
        return renderer.render_json()
    return renderer.render_ascii(color=color)
