"""Buffer insertion: for setup, isolate critical sinks from heavy nets;
for hold, add intentional delay on too-fast paths."""

from __future__ import annotations

from typing import List

from repro.netlist.transforms import Edit, insert_buffer
from repro.core.fixes.context import FixContext

#: Nets whose fanout exceeds this are candidates for load splitting.
FANOUT_THRESHOLD = 6


#: Never move more loads behind one buffer than this.
MAX_MOVED_LOADS = 8


def pick_buffer(ctx: FixContext, moved_loads) -> str:
    """Smallest library buffer whose drive limit covers the moved load."""
    moved_cap = 0.0
    for ref in moved_loads:
        if ref.is_port:
            moved_cap += 2.0
        else:
            cell = ctx.library.cell(
                ctx.design.instance(ref.instance).cell_name
            )
            moved_cap += cell.pin(ref.pin).capacitance
    for buf in ctx.library.buffers():
        limit = buf.output_pins()[0].max_capacitance or 1e9
        if limit >= 2.0 * moved_cap:
            return buf.name
    return ctx.library.buffers()[-1].name


def buffering_fix(ctx: FixContext) -> List[Edit]:
    """Split non-critical loads off high-fanout nets on violating paths.

    The critical sink (the one on the worst path) stays on the original
    net, which loses most of its load; up to :data:`MAX_MOVED_LOADS` of
    the other sinks move behind a buffer sized for the moved load.
    """
    edits: List[Edit] = []
    for path in ctx.worst_setup_paths():
        if len(edits) >= ctx.budget:
            break
        for point in path.points:
            if len(edits) >= ctx.budget:
                break
            if point.kind != "net" or point.ref.is_port:
                continue
            if point.ref in ctx.sta.graph.clock_pins:
                continue  # clock-network nets belong to CTS, not ECO fixes
            inst = ctx.design.instance(point.ref.instance)
            net_name = inst.net_of(point.ref.pin)
            net = ctx.design.get_net(net_name)
            if net.fanout < FANOUT_THRESHOLD:
                continue
            if net_name in ctx.touched:
                continue
            critical_sink = point.ref
            others = [l for l in net.loads if l != critical_sink]
            others = others[:MAX_MOVED_LOADS]
            if not others:
                continue
            buf = pick_buffer(ctx, others)
            edit = insert_buffer(ctx.design, ctx.library, net_name, buf,
                                 load_subset=others)
            edits.append(edit)
            ctx.touched.add(net_name)
    return edits


def slew_fix(ctx: FixContext) -> List[Edit]:
    """Repair max-transition violations: upsize the violating net's
    driver; when the driver is maxed out, split half the loads behind an
    appropriately sized buffer."""
    from repro.netlist.transforms import upsize

    edits: List[Edit] = []
    for violation in ctx.report.slew_violations:
        if len(edits) >= ctx.budget:
            break
        ref = violation.ref
        if ref.is_port or ref in ctx.sta.graph.clock_pins:
            continue
        inst = ctx.design.instance(ref.instance)
        cell = ctx.library.cell(inst.cell_name)
        # Find the net whose sink (or driver) pin violates.
        pin = cell.pin(ref.pin)
        net_name = inst.net_of(ref.pin)
        from repro.liberty.cell import PinDirection

        if pin.direction is PinDirection.INPUT:
            net = ctx.design.get_net(net_name)
            if net.driver is None or net.driver.is_port:
                continue
            driver_inst = net.driver.instance
        else:
            driver_inst = ref.instance
        if driver_inst in ctx.touched:
            continue
        driver_net = ctx.design.instance(driver_inst).net_of(
            _output_pin_name(ctx, driver_inst)
        )
        if upsize(ctx.design, ctx.library, driver_inst) is not None:
            ctx.mark(driver_inst)
            edits.append(Edit("slew_upsize", driver_inst, "", ""))
            continue
        net = ctx.design.get_net(driver_net)
        if net.fanout >= 2 and driver_net not in ctx.touched:
            half = net.loads[: max(net.fanout // 2, 1)][:MAX_MOVED_LOADS]
            buf = pick_buffer(ctx, half)
            edits.append(
                insert_buffer(ctx.design, ctx.library, driver_net, buf,
                              load_subset=half)
            )
            ctx.touched.add(driver_net)
    return edits


def _output_pin_name(ctx: FixContext, instance: str) -> str:
    cell = ctx.library.cell(ctx.design.instance(instance).cell_name)
    return cell.output_pins()[0].name


def hold_buffering_fix(ctx: FixContext, setup_guard: float = 40.0) -> List[Edit]:
    """Pad hold-violating endpoints with a small buffer on the D input.

    Refuses endpoints whose setup slack would not survive the added
    delay (``setup_guard`` approximates one small-buffer delay plus
    margin) — hold fixing must never create a setup violation.
    """
    edits: List[Edit] = []
    small_buf = ctx.library.buffers()[0].name
    setup_slack = {e.endpoint: e.slack for e in ctx.report.endpoints("setup")}
    for endpoint in ctx.report.violations("hold")[: ctx.endpoint_limit]:
        if len(edits) >= ctx.budget:
            break
        if setup_slack.get(endpoint.endpoint, 0.0) < setup_guard:
            continue
        ref = endpoint.endpoint
        if ref.is_port:
            continue
        inst = ctx.design.instance(ref.instance)
        net_name = inst.net_of(ref.pin)
        if net_name in ctx.touched:
            continue
        edit = insert_buffer(ctx.design, ctx.library, net_name, small_buf,
                             load_subset=[ref])
        edits.append(edit)
        ctx.touched.add(net_name)
    return edits
