"""Per-device CEC behaviour: queries, control, announcements, user actions.

Reactions are written as pure transitions: `react` takes the current
DeviceState plus an observed frame and returns the next state, the logged
fields that changed, and any response frames.  The caller (the simulator)
owns scheduling, so responses land on the bus one tick after the frame that
caused them.

`react` is a memo of that transition.  Each `DeviceCtx` holds its own memo
from (state, frame) to the reaction, compared by value, so a re-claim,
which builds a new context, starts with an empty one.  A memo that reaches
`_MEMO_LIMIT` entries is cleared.  Queries, the broadcast Request Active
Source among them, skip the memo: a device answers each one about once per
scan, so their entries would only take memory.
"""

import enum
from dataclasses import dataclass, field

from cecsim import frames as fr
from cecsim.frames import CecFrame, PhysicalAddress, PowerState
from cecsim.topology import DeviceKind, DeviceNode

# Feature Abort reason operands.
ABORT_UNRECOGNIZED = 0x00
ABORT_REFUSED = 0x04

# How the settings menu starves: this many externally sourced control frames
# inside the window lock the user out for the rest of the window.
MENU_PRESSURE_WINDOW = 10
MENU_PRESSURE_LIMIT = 3

# The most (state, frame) entries one context's `react` memo holds.
_MEMO_LIMIT = 256

# Opcodes `react` leaves out of the memo (see the module docstring).
_UNMEMOIZED = frozenset(fr.QUERY_OPCODES + (fr.OP_REQUEST_ACTIVE_SOURCE,))


@dataclass(frozen=True, slots=True)
class DeviceState:
    power: PowerState
    active_source: bool = False
    active_input_port: int | None = None
    cec_control_enabled: bool = True
    cec_info_reporting_enabled: bool = True

    @classmethod
    def initial(cls, node: DeviceNode) -> "DeviceState":
        return cls(
            power=node.initial_power,
            active_source=node.active_source,
            active_input_port=node.active_input_port,
            cec_control_enabled=node.cec_control_enabled,
            cec_info_reporting_enabled=node.cec_info_reporting_enabled,
        )

    def powered(self, power: PowerState) -> "DeviceState":
        return DeviceState(
            power, self.active_source, self.active_input_port,
            self.cec_control_enabled, self.cec_info_reporting_enabled,
        )

    def routed(self, active_source: bool, active_input_port: int | None) -> "DeviceState":
        return DeviceState(
            self.power, active_source, active_input_port,
            self.cec_control_enabled, self.cec_info_reporting_enabled,
        )


@dataclass
class DeviceCtx:
    """Addressing context the simulator hands to a reacting device.

    A context is never changed in place: a new logical address gets a new
    context.  `memo` is `react`'s cache for this context alone.
    """

    node: DeviceNode
    logical: int | None
    physical: PhysicalAddress
    memo: "dict[tuple[DeviceState, CecFrame], Reaction]" = field(
        default_factory=dict, compare=False, repr=False
    )


@dataclass
class Reaction:
    state: DeviceState
    # A memo hit hands one reaction to several callers, so it is a tuple.
    responses: tuple[CecFrame, ...] = ()
    # True when the frame counted as external control pressure on the device.
    control_pressure: bool = False
    # The fields the state log records that differ between the old state and
    # `state`, in the log's order: power, active_source, active_input_port,
    # cec_control_enabled.
    changed: tuple[str, ...] = ()


class UserAction(enum.Enum):
    POWER_ON = "power_on"
    POWER_OFF = "power_off"
    SELECT_INPUT = "select_input"
    OPEN_SETTINGS = "open_settings"
    DISABLE_CEC = "disable_cec"


def _report_physical_address(ctx: DeviceCtx) -> CecFrame:
    hi, lo = ctx.physical.to_bytes()
    return CecFrame(
        ctx.logical, fr.BROADCAST, fr.OP_REPORT_PHYSICAL_ADDRESS,
        (hi, lo, fr.DEVICE_TYPE_OPERAND[ctx.node.device_type]),
    )


def _device_vendor_id(ctx: DeviceCtx) -> CecFrame:
    return CecFrame(
        ctx.logical, fr.BROADCAST, fr.OP_DEVICE_VENDOR_ID, fr.vendor_id_bytes(ctx.node.vendor_id)
    )


def _active_source(ctx: DeviceCtx, address: PhysicalAddress) -> CecFrame:
    return CecFrame(ctx.logical, fr.BROADCAST, fr.OP_ACTIVE_SOURCE, address.to_bytes())


def announcement_frames(ctx: DeviceCtx, state: DeviceState) -> list[CecFrame]:
    """Broadcasts a device makes as it wakes up.

    Every device reports its physical address and vendor id.  A display
    with a selected input also re-announces the route, when its address
    has room for a port below it (not f.f.f.f, not four levels deep); a
    source that holds the active-source claim re-claims it.
    """
    if ctx.logical is None:
        return []
    out = [_report_physical_address(ctx), _device_vendor_id(ctx)]
    if ctx.node.kind is DeviceKind.DISPLAY and state.active_input_port is not None:
        if ctx.physical.depth() < 4:
            new = ctx.physical.child(state.active_input_port)
            out.append(
                CecFrame(
                    ctx.logical,
                    fr.BROADCAST,
                    fr.OP_ROUTING_CHANGE,
                    ctx.physical.to_bytes() + new.to_bytes(),
                )
            )
    elif state.active_source and not ctx.physical.is_unregistered:
        out.append(_active_source(ctx, ctx.physical))
    return out


def _query_response(ctx: DeviceCtx, state: DeviceState, frame: CecFrame) -> CecFrame | None:
    node, me, them = ctx.node, ctx.logical, frame.initiator
    op = frame.opcode
    if op == fr.OP_GIVE_PHYSICAL_ADDRESS:
        return _report_physical_address(ctx)
    if op == fr.OP_GIVE_OSD_NAME:
        name = node.osd_name.encode("ascii", errors="replace")[:14]
        if not name:
            return CecFrame(me, them, fr.OP_FEATURE_ABORT, (op, ABORT_REFUSED))
        return CecFrame(me, them, fr.OP_SET_OSD_NAME, tuple(name))
    if op == fr.OP_GIVE_VENDOR_ID:
        return _device_vendor_id(ctx)
    if op == fr.OP_GIVE_POWER_STATUS:
        return CecFrame(
            me, them, fr.OP_REPORT_POWER_STATUS, (fr.POWER_STATUS_OPERAND[state.power],)
        )
    if op == fr.OP_GET_CEC_VERSION:
        operand = fr.CEC_VERSION_OPERAND.get(node.cec_version)
        if operand is None:
            return CecFrame(me, them, fr.OP_FEATURE_ABORT, (op, ABORT_REFUSED))
        return CecFrame(me, them, fr.OP_CEC_VERSION, (operand,))
    if op == fr.OP_GET_MENU_LANGUAGE:
        if node.menu_language is None:
            return CecFrame(me, them, fr.OP_FEATURE_ABORT, (op, ABORT_REFUSED))
        lang = node.menu_language.encode("ascii")[:3]
        return CecFrame(me, fr.BROADCAST, fr.OP_SET_MENU_LANGUAGE, tuple(lang))
    return None


def _derived_input_port(ctx: DeviceCtx, claimed: PhysicalAddress) -> int | None:
    if ctx.node.kind not in (DeviceKind.DISPLAY, DeviceKind.SWITCH):
        return None
    port = ctx.physical.port_towards(claimed)
    if port is None or port > ctx.node.input_count:
        return None
    return port


_POWER = ("power",)
_SOURCE = ("active_source",)
_PORT = ("active_input_port",)
_SOURCE_AND_PORT = _SOURCE + _PORT


def _route(state: DeviceState, active_source: bool, port: int | None, pressure: bool) -> Reaction:
    """The reaction that sets the active-source claim and the input port."""
    source_moved = active_source != state.active_source
    port_moved = port != state.active_input_port
    if not (source_moved or port_moved):
        return Reaction(state, control_pressure=pressure)
    changed = _SOURCE_AND_PORT if source_moved and port_moved else _SOURCE if source_moved else _PORT
    return Reaction(state.routed(active_source, port), (), pressure, changed)


def react(ctx: DeviceCtx, state: DeviceState, frame: CecFrame) -> Reaction:
    """Device reaction to a frame it observed on its bus segment.

    The caller filters out the device's own transmissions; everything here
    is traffic from someone else.  Polling messages are acknowledged at the
    bus layer and ignored here.  The simulator only calls this for frames
    that can land on the device (see `cecsim.bus`); polls and frames
    addressed elsewhere still return the state unchanged.

    The transition is pure, so its result is memoized in `ctx.memo` (see
    the module docstring), which is cleared when it holds `_MEMO_LIMIT`
    entries.  When nothing changed, the returned reaction's state is the
    `state` passed in, the same object, hit or miss.
    """
    if frame.opcode in _UNMEMOIZED:
        return _react(ctx, state, frame)
    memo = ctx.memo
    key = (state, frame)
    reaction = memo.get(key)
    if reaction is None:
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        reaction = memo[key] = _react(ctx, state, frame)
    elif reaction.state is not state and not reaction.changed:
        # An equal state from another object: keep the caller's.
        return Reaction(state, reaction.responses, reaction.control_pressure)
    return reaction


def _react(ctx: DeviceCtx, state: DeviceState, frame: CecFrame) -> Reaction:
    """`react` without the memo."""
    if frame.is_polling:
        return Reaction(state)
    addressed = ctx.logical is not None and frame.destination == ctx.logical
    broadcast = frame.is_broadcast
    if not addressed and not broadcast:
        return Reaction(state)

    op = frame.opcode
    control = op in fr.CONTROL_OPCODES and state.cec_control_enabled
    pressure = control

    # Queries only answer when the device still reports information.
    if addressed and op in fr.QUERY_OPCODES:
        if not state.cec_info_reporting_enabled:
            return Reaction(state)
        response = _query_response(ctx, state, frame)
        return Reaction(state, (response,) if response else ())

    if op == fr.OP_STANDBY:
        if control and state.power is not PowerState.STANDBY:
            return Reaction(
                state.powered(PowerState.STANDBY), control_pressure=pressure, changed=_POWER
            )
        return Reaction(state, control_pressure=pressure)

    if op == fr.OP_IMAGE_VIEW_ON and addressed:
        if control and ctx.node.kind is DeviceKind.DISPLAY and state.power is PowerState.STANDBY:
            new_state = state.powered(PowerState.ON)
            return Reaction(
                new_state, tuple(announcement_frames(ctx, new_state)), pressure, _POWER
            )
        return Reaction(state, control_pressure=pressure)

    if op == fr.OP_ACTIVE_SOURCE and broadcast and len(frame.operands) == 2:
        claimed = PhysicalAddress.from_bytes(*frame.operands)
        claims = not ctx.physical.is_unregistered and claimed == ctx.physical
        port = _derived_input_port(ctx, claimed) if control else None
        if port is None:
            port = state.active_input_port
        return _route(state, claims, port, pressure)

    if op == fr.OP_ROUTING_CHANGE and broadcast and len(frame.operands) == 4:
        if control:
            new = PhysicalAddress.from_bytes(frame.operands[2], frame.operands[3])
            port = _derived_input_port(ctx, new)
            if port is not None:
                return _route(state, state.active_source, port, pressure)
        return Reaction(state, control_pressure=pressure)

    if op == fr.OP_REQUEST_ACTIVE_SOURCE and broadcast:
        if state.active_source and state.cec_info_reporting_enabled and ctx.logical is not None:
            return Reaction(state, (_active_source(ctx, ctx.physical),))
        return Reaction(state)

    if op in fr.RESPONSE_OPCODES:
        return Reaction(state)

    if addressed and state.cec_info_reporting_enabled and ctx.logical is not None:
        abort = CecFrame(ctx.logical, frame.initiator, fr.OP_FEATURE_ABORT, (op, ABORT_UNRECOGNIZED))
        return Reaction(state, (abort,))
    return Reaction(state)


@dataclass
class UserActionResult:
    ok: bool
    reason: str
    state: DeviceState
    emissions: list[CecFrame] = field(default_factory=list)
    # As Reaction.changed.
    changed: tuple[str, ...] = ()


def apply_user_action(
    ctx: DeviceCtx,
    state: DeviceState,
    action: UserAction,
    argument: int | None = None,
    menu_accessible: bool = True,
) -> UserActionResult:
    """Front-panel and remote-control actions.

    These are physical interactions, so CEC control gating does not apply;
    only the settings menu can be starved out by control-frame pressure.
    """
    node = ctx.node
    if action is UserAction.POWER_ON:
        if state.power is not PowerState.STANDBY:
            return UserActionResult(False, "already on", state)
        new_state = state.powered(PowerState.ON)
        return UserActionResult(
            True, "", new_state, announcement_frames(ctx, new_state), _POWER
        )

    if action is UserAction.POWER_OFF:
        if state.power is PowerState.STANDBY:
            return UserActionResult(False, "already in standby", state)
        return UserActionResult(True, "", state.powered(PowerState.STANDBY), [], _POWER)

    if action is UserAction.SELECT_INPUT:
        if node.kind not in (DeviceKind.DISPLAY, DeviceKind.SWITCH):
            return UserActionResult(False, "device has no selectable inputs", state)
        if not isinstance(argument, int) or not 1 <= argument <= node.input_count:
            return UserActionResult(False, "unknown input port %r" % (argument,), state)
        new_state, changed = state, ()
        if argument != state.active_input_port:
            new_state, changed = state.routed(state.active_source, argument), _PORT
        emissions = []
        # f.f.f.f and a four-level address have no port to name below them.
        if ctx.logical is not None and ctx.physical.depth() < 4:
            emissions.append(_active_source(ctx, ctx.physical.child(argument)))
        return UserActionResult(True, "", new_state, emissions, changed)

    if action is UserAction.OPEN_SETTINGS:
        if not menu_accessible:
            return UserActionResult(False, "settings menu unresponsive", state)
        return UserActionResult(True, "", state)

    if action is UserAction.DISABLE_CEC:
        if not menu_accessible:
            return UserActionResult(False, "settings menu unresponsive", state)
        disabled = DeviceState(
            state.power, state.active_source, state.active_input_port, False, False
        )
        changed = ("cec_control_enabled",) if state.cec_control_enabled else ()
        return UserActionResult(True, "", disabled, [], changed)

    return UserActionResult(False, "unsupported action", state)
