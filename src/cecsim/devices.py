"""Per-device CEC behaviour: queries, control, announcements, user actions.

Reactions are written as pure transitions: `react` takes the current
DeviceState plus an observed frame and returns the next state, the state
log's lines for the fields that changed, and any response frames.  The
caller (the simulator) owns scheduling, so responses land on the bus one
tick after the frame that caused them.

A user action (`apply_user_action`) is the same kind of transition, made
by someone at the device's own buttons instead of by a frame: it returns a
`Reaction` too, with the reason the device refused it, if it did.

Device states are compared by reference.  Every state comes from the one
table of them, `_STATES`, which holds the first-made object of each value,
so equal states are one object; it holds at most 256 of them.  Transitions
reach it through `_state`, and `DeviceState.initial` through `_initial`.
Each interned state has one shared no-change reaction, so a reaction that
changes, answers and presses nothing (most of a broadcast's fan-out)
builds no object.  The simulator caches reactions by the identities of the
state and the frame (see `cecsim.bus`), and not by the device's context,
which cannot change.
"""

from dataclasses import dataclass, replace
from functools import cache

from cecsim import frames as fr
from cecsim.frames import CecFrame, IdentityEnum, PhysicalAddress, PowerState
from cecsim.topology import DeviceKind, DeviceNode

# Feature Abort reason operands.
ABORT_UNRECOGNIZED = 0x00
ABORT_REFUSED = 0x04

# How the settings menu starves: this many externally sourced control frames
# inside the window lock the user out for the rest of the window.
MENU_PRESSURE_WINDOW = 10
MENU_PRESSURE_LIMIT = 3

# The fields the state log records, in the order it records them.
_LOGGED_FIELDS = ("power", "active_source", "active_input_port", "cec_control_enabled")


@dataclass(frozen=True, slots=True)
class DeviceState:
    power: PowerState
    active_source: bool = False
    active_input_port: int | None = None
    cec_control_enabled: bool = True
    cec_info_reporting_enabled: bool = True

    @classmethod
    def initial(cls, node: DeviceNode) -> "DeviceState":
        return _initial(
            node.initial_power,
            node.active_source,
            node.active_input_port,
            node.cec_control_enabled,
            node.cec_info_reporting_enabled,
        )


# Every state made, by value: at most 2 powers x 2 claims x 16 ports (None
# or 1..MAX_PORTS) x 2 x 2 flags = 256.
_STATES: dict[DeviceState, DeviceState] = {}


# Each interned state's no-change reaction, by the state's id: an interned
# state lives as long as this table, so no other object can hold its id.
_UNCHANGED: dict[int, "Reaction"] = {}


def _intern(new: DeviceState) -> DeviceState:
    """The first-made object of `new`'s value."""
    state = _STATES.setdefault(new, new)
    if state is new:
        _UNCHANGED[id(new)] = Reaction(new)
    return state


def _state(state: DeviceState, **changes) -> DeviceState:
    """`state` with the fields `changes` names set: the first-made object of
    that value."""
    return _intern(replace(state, **changes))


# Bounded like `_STATES`.  A fleet's nodes start in a few states, so a run's
# start looks each one up instead of building it.
@cache
def _initial(*fields) -> DeviceState:
    """The state with these field values: the first-made object of that value."""
    return _intern(DeviceState(*fields))


@dataclass(frozen=True, slots=True)
class DeviceCtx:
    """Addressing context the simulator hands to a reacting device.

    A context cannot be changed, since the simulator's reaction memo is not
    keyed by it: a new logical address gets a new context.
    """

    node: DeviceNode
    logical: int | None
    physical: PhysicalAddress


@dataclass
class Reaction:
    state: DeviceState
    # A cached reaction is handed out again, so it is a tuple.
    responses: tuple[CecFrame, ...] = ()
    # True when the frame counted as external control pressure on the device.
    control_pressure: bool = False
    # The state log's (field, text) pair for each logged field that differs
    # between the old state and `state`, in the log's order: power,
    # active_source, active_input_port, cec_control_enabled.
    changed: tuple[tuple[str, str], ...] = ()


def _unchanged(state: DeviceState) -> Reaction:
    """The reaction that leaves `state` as it is and answers nothing: an
    interned state's shared one, else a new one."""
    reaction = _UNCHANGED.get(id(state))
    return Reaction(state) if reaction is None else reaction


def _move(old: DeviceState, new: DeviceState, responses=(), pressure=False) -> Reaction:
    """The reaction that moves `old` to `new`, with its `changed` pairs.  A
    cached reaction makes them once, and every change it logs shares the texts."""
    changed = tuple(
        (name, value.value if isinstance(value, PowerState) else str(value))
        for name in _LOGGED_FIELDS
        if (value := getattr(new, name)) != getattr(old, name)
    )
    return Reaction(new, tuple(responses), pressure, changed)


class UserAction(IdentityEnum):
    POWER_ON = "power_on"
    POWER_OFF = "power_off"
    SELECT_INPUT = "select_input"
    DISABLE_CEC = "disable_cec"


def _report_physical_address(ctx: DeviceCtx) -> CecFrame:
    return CecFrame(
        ctx.logical, fr.BROADCAST, fr.OP_REPORT_PHYSICAL_ADDRESS,
        ctx.physical.to_bytes() + bytes((fr.DEVICE_TYPE_OPERAND[ctx.node.device_type],)),
    )


def _device_vendor_id(ctx: DeviceCtx) -> CecFrame:
    return CecFrame(
        ctx.logical, fr.BROADCAST, fr.OP_DEVICE_VENDOR_ID, ctx.node.vendor_id.to_bytes(3, "big")
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


def _query_response(ctx: DeviceCtx, state: DeviceState, frame: CecFrame) -> CecFrame:
    node, me, them = ctx.node, ctx.logical, frame.initiator
    op = frame.opcode
    if op == fr.OP_GIVE_PHYSICAL_ADDRESS:
        return _report_physical_address(ctx)
    if op == fr.OP_GIVE_OSD_NAME:
        name = node.osd_name.encode("ascii", errors="replace")[:14]
        return CecFrame(me, them, fr.OP_SET_OSD_NAME, name)
    if op == fr.OP_GIVE_VENDOR_ID:
        return _device_vendor_id(ctx)
    if op == fr.OP_GIVE_POWER_STATUS:
        return CecFrame(
            me, them, fr.OP_REPORT_POWER_STATUS, bytes((fr.POWER_STATUS_OPERAND[state.power],))
        )
    if op == fr.OP_GET_CEC_VERSION:
        operand = fr.CEC_VERSION_OPERAND.get(node.cec_version)
        if operand is None:
            return CecFrame(me, them, fr.OP_FEATURE_ABORT, bytes((op, ABORT_REFUSED)))
        return CecFrame(me, them, fr.OP_CEC_VERSION, bytes((operand,)))
    if op == fr.OP_GET_MENU_LANGUAGE:
        if node.menu_language is None:
            return CecFrame(me, them, fr.OP_FEATURE_ABORT, bytes((op, ABORT_REFUSED)))
        lang = node.menu_language.encode("ascii")[:3]
        return CecFrame(me, fr.BROADCAST, fr.OP_SET_MENU_LANGUAGE, lang)


def _derived_input_port(ctx: DeviceCtx, claimed: PhysicalAddress) -> int | None:
    if ctx.node.kind not in (DeviceKind.DISPLAY, DeviceKind.SWITCH):
        return None
    port = ctx.physical.port_towards(claimed)
    if port is None or port > ctx.node.input_count:
        return None
    return port


def _route(state: DeviceState, active_source: bool, port: int | None, pressure: bool) -> Reaction:
    """The reaction that sets the active-source claim and the input port."""
    if active_source == state.active_source and port == state.active_input_port:
        return Reaction(state, control_pressure=pressure)
    new_state = _state(state, active_source=active_source, active_input_port=port)
    return _move(state, new_state, (), pressure)


def react(ctx: DeviceCtx, state: DeviceState, frame: CecFrame) -> Reaction:
    """Device reaction to a frame it observed on its bus segment.

    The caller filters out the device's own transmissions; everything here
    is traffic from someone else.  Polling messages are acknowledged at the
    bus layer and ignored here.  The simulator only calls this for frames
    that can land on the device (see `cecsim.bus`); polls and frames
    addressed elsewhere still return the state unchanged.  When nothing
    changed, the returned reaction's state is the `state` passed in, the
    same object.
    """
    if frame.is_polling:
        return _unchanged(state)
    addressed = ctx.logical is not None and frame.destination == ctx.logical
    broadcast = frame.is_broadcast
    if not addressed and not broadcast:
        return _unchanged(state)

    op = frame.opcode
    control = op in fr.CONTROL_OPCODES and state.cec_control_enabled
    pressure = control

    # Queries only answer when the device still reports information.
    if addressed and op in fr.QUERY_OPCODES:
        if not state.cec_info_reporting_enabled:
            return _unchanged(state)
        return Reaction(state, (_query_response(ctx, state, frame),))

    if op == fr.OP_STANDBY:
        if control and state.power is not PowerState.STANDBY:
            return _move(state, _state(state, power=PowerState.STANDBY), (), pressure)
        return Reaction(state, control_pressure=pressure)

    if op == fr.OP_IMAGE_VIEW_ON and addressed:
        if control and ctx.node.kind is DeviceKind.DISPLAY and state.power is PowerState.STANDBY:
            new_state = _state(state, power=PowerState.ON)
            return _move(state, new_state, announcement_frames(ctx, new_state), pressure)
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
        return _unchanged(state)

    if op in fr.RESPONSE_OPCODES:
        return _unchanged(state)

    if addressed and state.cec_info_reporting_enabled and ctx.logical is not None:
        abort = CecFrame(
            ctx.logical, frame.initiator, fr.OP_FEATURE_ABORT, bytes((op, ABORT_UNRECOGNIZED))
        )
        return Reaction(state, (abort,))
    return _unchanged(state)


def apply_user_action(
    ctx: DeviceCtx,
    state: DeviceState,
    action: UserAction,
    argument: int | None = None,
    menu_accessible: bool = True,
) -> tuple[str, Reaction]:
    """Front-panel and remote-control actions: the reason the device
    refused the action ("" when it went ahead) and its reaction, whose
    `responses` go on the wire from the action's tick on.

    These are physical interactions, so CEC control gating does not apply;
    only the settings menu can be starved out by control-frame pressure.
    """
    node = ctx.node
    if action is UserAction.POWER_ON:
        if state.power is not PowerState.STANDBY:
            return "already on", _unchanged(state)
        new_state = _state(state, power=PowerState.ON)
        return "", _move(state, new_state, announcement_frames(ctx, new_state))

    if action is UserAction.POWER_OFF:
        if state.power is PowerState.STANDBY:
            return "already in standby", _unchanged(state)
        return "", _move(state, _state(state, power=PowerState.STANDBY))

    if action is UserAction.SELECT_INPUT:
        if node.kind not in (DeviceKind.DISPLAY, DeviceKind.SWITCH):
            return "device has no selectable inputs", _unchanged(state)
        if not isinstance(argument, int) or not 1 <= argument <= node.input_count:
            return "unknown input port %r" % (argument,), _unchanged(state)
        new_state = state
        if argument != state.active_input_port:
            new_state = _state(state, active_input_port=argument)
        # f.f.f.f and a four-level address have no port to name below them.
        claims = ()
        if ctx.logical is not None and ctx.physical.depth() < 4:
            claims = (_active_source(ctx, ctx.physical.child(argument)),)
        return "", _move(state, new_state, claims)

    # DISABLE_CEC, the one action left.
    if not menu_accessible:
        return "settings menu unresponsive", _unchanged(state)
    disabled = _state(state, cec_control_enabled=False, cec_info_reporting_enabled=False)
    return "", _move(state, disabled)
