"""Command line front end for the consumer-bus lab.

Subcommands: run a scenario, take a one-off device census, serve the web
relay, replay a trace file through the detector, and list the canned
scenarios.  Exit codes: 0 success, 2 bad input, 3 a requested check failed.
"""

import argparse
import logging
import os
import sys

from cecsim import ids as ids_mod
from cecsim import relay as relay_mod
from cecsim import scenarios as scen
from cecsim import schema
from cecsim.bus import parse_trace_line
from cecsim.testbed import TESTBED_NAME

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CHECK_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cecsim",
        description="Simulated HDMI control-bus testbed: attacks, defenses, scenarios.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and report its checks")
    run.add_argument("--scenario", required=True, help="builtin name or path to a scenario file")
    run.add_argument("--out", help="directory for trace/report/transfer artifacts")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--relay-url", help="use a live relay at this base URL")
    run.add_argument("--ids-config", help="JSON file with detector thresholds")
    run.add_argument("--ids-tap", help="device whose vantage point the detector taps")
    run.add_argument(
        "--check", action="store_true", help="exit nonzero when any scenario check fails"
    )
    run.set_defaults(handler=_cmd_run)

    scan = sub.add_parser("scan", help="walk a topology and print the device census")
    scan.add_argument("--topology", default=TESTBED_NAME, help="builtin name or topology file")
    scan.add_argument("--actor", help="device that performs the walk (default: first listener)")
    scan.add_argument("--json", action="store_true", help="print the census as JSON")
    scan.set_defaults(handler=_cmd_scan)

    relay = sub.add_parser("relay", help="relay utilities")
    relay_sub = relay.add_subparsers(dest="relay_command", required=True)
    serve = relay_sub.add_parser("serve", help="serve the two-mailbox command relay over HTTP")
    serve.add_argument("--bind", default="127.0.0.1:8750", help="host:port to listen on")
    serve.set_defaults(handler=_cmd_relay_serve)

    ids = sub.add_parser("ids", help="detector utilities")
    ids_sub = ids.add_subparsers(dest="ids_command", required=True)
    analyze = ids_sub.add_parser("analyze", help="replay a trace log through the detector")
    analyze.add_argument("trace", help="path to a trace.log file")
    analyze.add_argument("--ids-config", help="JSON file with detector thresholds")
    analyze.add_argument("--ids-tap", help="only analyze frames this device observed")
    analyze.set_defaults(handler=_cmd_ids_analyze)

    listing = sub.add_parser("list-scenarios", help="list the builtin scenarios")
    listing.set_defaults(handler=_cmd_list_scenarios)
    return parser


def _cmd_run(args) -> int:
    if args.out is not None:
        # Made now, so a path that cannot be a directory is refused before anything runs.
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                "--out must name a directory, got %r: %s" % (args.out, exc.strerror)
            ) from None
    # Each flag replaces a field of the document, so the loader checks what runs.
    document, base_dir = scen.scenario_document(args.scenario)
    if args.seed is not None:
        document = dict(document, seed=args.seed)
    ids = dict(schema.obj(document.get("ids", {}), "ids"))
    relay = dict(schema.obj(document.get("relay", {}), "relay"))
    if args.ids_tap is not None:
        ids["tap"] = args.ids_tap
    if args.ids_config is not None:
        ids["config"] = schema.read_json_file(args.ids_config, "detector config")
    if args.relay_url is not None:
        relay["enabled"] = True
    scenario = scen.load_scenario({**document, "ids": ids, "relay": relay}, base_dir)
    relay_client = None
    if args.relay_url is not None:
        from cecsim import relay_http  # only a live relay needs the HTTP stack

        relay_client = relay_http.HttpRelayClient(args.relay_url)
    result = scen.run_scenario(scenario, relay_client=relay_client)
    outcomes = scen.evaluate_checks(result)
    if args.out is not None:
        written = scen.write_artifacts(result, args.out)
        log.info("wrote %d artifacts to %s", len(written), args.out)
    print(
        "scenario %s: %d ticks, %d frames, %d alerts, %d transfers"
        % (
            scenario.name,
            scenario.duration,
            len(result.trace.events),
            len(result.alerts),
            len(result.transfers),
        )
    )
    for outcome in outcomes:
        print("[%s] %s: %s" % ("PASS" if outcome.ok else "FAIL", outcome.label, outcome.detail))
    if args.check and any(not o.ok for o in outcomes):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_scan(args) -> int:
    # A census is a scenario with one scan action, loaded and run like any other.
    document = {"name": "scan", "topology": args.topology, "duration": 140}
    actor = args.actor
    if actor is None:
        topology = scen.load_scenario(document).topology
        actor = (topology.listeners() or [topology.root])[0]
    document["actions"] = [{"tick": 0, "actor": actor, "action": "scan"}]
    report = scen.run_scenario(scen.load_scenario(document)).reports[-1]
    print(report.to_json() if args.json else report.render_table(), end="")
    if not args.json:
        print()
    return EXIT_OK


def _cmd_relay_serve(args) -> int:
    host, _, port_text = args.bind.rpartition(":")
    if not host or not port_text.isdecimal() or int(port_text) > 65535:
        print("--bind expects host:port, got %r" % args.bind, file=sys.stderr)
        return EXIT_BAD_INPUT
    from cecsim import relay_http  # only a live relay needs the HTTP stack

    server = relay_http.RelayServer((host, int(port_text)))
    print("relay listening on %s (paths %s and %s)"
          % (server.url, relay_mod.LISTENER_PATH, relay_mod.WEBCLIENT_PATH))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def _cmd_ids_analyze(args) -> int:
    # The config is refused before the trace is read.  Each line goes through
    # the tap to the detector as it is read, so memory follows the detector's
    # windows, not the trace.
    config = args.ids_config
    if config is not None:
        config = ids_mod.RuleConfig.from_dict(schema.read_json_file(config, "detector config"))
    detector = ids_mod.Detector(config)
    frames, seen, bad = 0, 0, None

    def events(fh):
        nonlocal frames, bad
        for number, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                event = parse_trace_line(line.strip())
            except ValueError as exc:
                bad = "%s:%d: %s" % (args.trace, number, exc)
                return
            frames += 1
            yield event

    with open(args.trace, "r", encoding="utf-8") as fh:
        for event in ids_mod.observed(events(fh), args.ids_tap):
            seen += 1
            detector.feed(event)
    if bad is not None:
        print(bad, file=sys.stderr)
        return EXIT_BAD_INPUT
    if frames and not seen:
        raise ValueError("detector tap %r observes none of the %d frames" % (args.ids_tap, frames))
    for alert in detector.alerts:
        print(alert.to_json())
    print("%d alerts from %d frames" % (len(detector.alerts), frames), file=sys.stderr)
    return EXIT_OK


def _cmd_list_scenarios(args) -> int:
    for name in scen.builtin_scenario_names():
        print(name)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
