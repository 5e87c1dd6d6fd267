(* heimdall — command-line interface to the library.

   Subcommands:
     network    inspect an evaluation network (inventory, validation)
     config     print a device's configuration
     mine       mine the policy set of a network
     lint       static analysis over configs, ACLs and privilege specs
     analyze    semantic analysis: packet-set ACL checks, network-wide
                checks, per-ticket privilege over-grant detection
     policy     parse, compile, diff and analyse hierarchical policy
                trees (POL001-POL006) against the flat spec and tickets
     trace      trace a flow through a network's dataplane
     ticket     run an issue through the Current and Heimdall workflows
     privilege  print the Privilege_msp generated for an issue's ticket
     sweep      the Figure-8/9 feasibility / attack-surface sweep
     experiment print a paper artifact (table1, fig7, fig8, fig9, ...)
     chaos      replay an issue under a seeded fault plan, check recovery
     scale      generate a fleet-scale network (fat-tree / leaf-spine /
                multi-campus) and run the whole pipeline over it
     serve      the Watchtower: live metrics/health HTTP exporter plus a
                continuous drift monitor over a scenario
     shell      interactive technician session (twin or --emergency)
     export     write a network to disk in the loader layout
     load       load + validate a network from disk, mine its policies
     audit      verify an exported audit trail *)

open Cmdliner
open Heimdall_net
open Heimdall_control
open Heimdall_scenarios

(* ---------------- shared arguments ---------------- *)

(* The parsed value carries its scenario name (threaded through
   [Experiments.scenario]), so printing it back can never misreport —
   no probing the network for well-known node names. *)
let network_of_string s =
  match Experiments.scenario_of_name s with
  | Some sc -> Ok sc
  | None ->
      Error
        (Printf.sprintf "unknown network %S (try %s)" s
           (String.concat " or " Experiments.scenario_names))

let network_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (network_of_string s) in
  let print fmt (sc : Experiments.scenario) =
    Format.pp_print_string fmt sc.scenario_name
  in
  Arg.conv (parse, print)

let network_arg =
  Arg.(
    required
    & pos 0 (some network_conv) None
    & info [] ~docv:"NETWORK" ~doc:"Evaluation network: enterprise or university.")

let issue_arg n =
  Arg.(
    required
    & pos n (some string) None
    & info [] ~docv:"ISSUE" ~doc:"Issue name: vlan, ospf or isp.")

let find_issue (sc : Experiments.scenario) name =
  match List.find_opt (fun (i : Heimdall_msp.Issue.t) -> i.name = name) sc.issues with
  | Some i -> i
  | None ->
      Printf.eprintf "unknown issue %S (try vlan, ospf or isp)\n" name;
      exit 1

(* An optional ISSUE: one named issue, or all of the scenario's. *)
let issue_opt_arg what =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"ISSUE"
        ~doc:(Printf.sprintf "Issue to %s: vlan, ospf or isp (default: all three)." what))

let resolve_issues (sc : Experiments.scenario) = function
  | None -> sc.issues
  | Some name -> [ find_issue sc name ]

let domains_arg doc =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* ---------------- network ---------------- *)

let network_cmd =
  let run { Experiments.net; policies; _ } =
    let topo = Network.topology net in
    Printf.printf "nodes: %d (%d routers, %d firewalls, %d switches, %d hosts)\n"
      (Topology.node_count topo)
      (List.length (Topology.node_names ~kind:Topology.Router topo))
      (List.length (Topology.node_names ~kind:Topology.Firewall topo))
      (List.length (Topology.node_names ~kind:Topology.Switch topo))
      (List.length (Topology.node_names ~kind:Topology.Host topo));
    Printf.printf "links: %d\nconfig lines: %d\npolicies: %d\n"
      (Topology.link_count topo)
      (Network.total_config_lines net)
      (List.length policies);
    match Network.validate net with
    | Ok () -> print_endline "validation: ok"
    | Error m -> Printf.printf "validation: FAILED (%s)\n" m
  in
  Cmd.v
    (Cmd.info "network" ~doc:"Inspect an evaluation network")
    Term.(const run $ network_arg)

(* ---------------- config ---------------- *)

let config_cmd =
  let node_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NODE" ~doc:"Device name.")
  in
  let run { Experiments.net; _ } node =
    match Network.config node net with
    | Some cfg -> print_string (Heimdall_config.Printer.render cfg)
    | None ->
        Printf.eprintf "unknown device %s\n" node;
        exit 1
  in
  Cmd.v
    (Cmd.info "config" ~doc:"Print a device's configuration")
    Term.(const run $ network_arg $ node_arg)

(* ---------------- mine ---------------- *)

let mine_cmd =
  let run { Experiments.policies; _ } =
    List.iter (fun p -> print_endline (Heimdall_verify.Policy.to_string p)) policies;
    Printf.printf "total: %d policies\n" (List.length policies)
  in
  Cmd.v
    (Cmd.info "mine" ~doc:"Mine the policy set of a network (config2spec-style)")
    Term.(const run $ network_arg)

(* ---------------- trace ---------------- *)

let trace_cmd =
  let addr n docv =
    Arg.(required & pos n (some string) None & info [] ~docv ~doc:"IPv4 address.")
  in
  let run { Experiments.net; _ } src dst =
    match (Ipv4.of_string_opt src, Ipv4.of_string_opt dst) with
    | Some src, Some dst ->
        let dp = Dataplane.compute net in
        print_string
          (Heimdall_verify.Trace.result_to_string
             (Heimdall_verify.Trace.trace dp (Flow.icmp src dst)))
    | _ ->
        prerr_endline "malformed address";
        exit 1
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Trace an ICMP flow through the dataplane")
    Term.(const run $ network_arg $ addr 1 "SRC" $ addr 2 "DST")

(* ---------------- observability (shared flags + obs subcommand) ---------------- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the run's spans to $(docv) as JSON lines (one span per line).")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metrics registry in Prometheus text format (instead of JSON).")

(* Shared by every subcommand that creates a verify engine. *)
let dp_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dp-cache" ] ~docv:"DIR"
        ~doc:
          "Persist computed dataplanes under $(docv) (created on demand) and reuse \
           them across runs.  Entries are keyed by the network's structural digest, \
           so edits invalidate exactly the affected networks.")

let write_jsonl path what emit items =
  let sink = Heimdall_obs.Sink.file path in
  emit sink items;
  Heimdall_obs.Sink.close sink;
  Printf.printf "wrote %d %s to %s\n" (List.length items) what path

(* Drain an Obs context to the terminal (span tree + metrics dump) and,
   when requested, to a JSONL trace file.  Shared by [obs] and [ticket]. *)
let dump_obs ?trace_out ~metrics (obs : Heimdall_obs.Obs.t) =
  let spans = Heimdall_obs.Tracer.flush obs.tracer in
  print_string (Heimdall_obs.Tracer.render_tree spans);
  Option.iter
    (fun path -> write_jsonl path "spans" Heimdall_obs.Tracer.emit spans)
    trace_out;
  let events = Heimdall_obs.Events.events obs.events in
  if events <> [] then begin
    print_endline "events:";
    List.iter
      (fun e ->
        print_endline
          ("  "
          ^ Heimdall_json.Json.to_string (Heimdall_obs.Events.event_to_json e)))
      events
  end;
  print_endline "metrics:";
  if metrics then print_string (Heimdall_obs.Metrics.to_prometheus obs.metrics)
  else
    print_endline
      (Heimdall_json.Json.to_string ~pretty:true
         (Heimdall_obs.Metrics.to_json obs.metrics))

(* Replay a scenario's issues through the instrumented workflow on a
   fresh shared context: the registry is labeled by scenario (via a
   scoped engine view) and by session (one scoped view per issue), so
   every series on the /metrics page says which run produced it.  Returns
   the context, its scenario view and the engine.  Shared by [obs] and
   [serve]. *)
let replay_issues ?domains ?cache_dir (sc : Experiments.scenario) issues =
  let obs = Heimdall_obs.Obs.create () in
  let scoped = Heimdall_obs.Obs.scoped obs [ ("scenario", sc.scenario_name) ] in
  let engine = Heimdall_verify.Engine.create ?domains ~obs:scoped ?cache_dir () in
  List.iter
    (fun (issue : Heimdall_msp.Issue.t) ->
      let session_obs =
        Heimdall_obs.Obs.scoped scoped [ ("session", issue.Heimdall_msp.Issue.name) ]
      in
      let run =
        Heimdall_msp.Workflow.run_heimdall ~engine ~obs:session_obs
          ~production:sc.Experiments.net ~policies:sc.Experiments.policies ~issue ()
      in
      Printf.printf "%s: %s, %d denied commands\n" issue.Heimdall_msp.Issue.name
        (if run.Heimdall_msp.Workflow.resolved then "resolved" else "NOT resolved")
        run.Heimdall_msp.Workflow.denied)
    issues;
  (obs, scoped, engine)

let obs_cmd =
  let prometheus_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prometheus-out" ] ~docv:"FILE"
          ~doc:"Also write the Prometheus text exposition to $(docv).")
  in
  let run sc issue_name trace_out metrics domains cache_dir prometheus_out =
    let obs, _, engine =
      replay_issues ?domains ?cache_dir sc (resolve_issues sc issue_name)
    in
    print_string (Heimdall_verify.Engine.render_stats (Heimdall_verify.Engine.stats engine));
    dump_obs ?trace_out ~metrics obs;
    match prometheus_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Heimdall_obs.Metrics.to_prometheus obs.metrics);
        close_out oc;
        Printf.printf "wrote Prometheus exposition to %s\n" path
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Replay a scenario's issues through the instrumented Heimdall workflow and \
          print the span tree, structured events and metrics")
    Term.(
      const run $ network_arg $ issue_opt_arg "replay" $ trace_out_arg $ metrics_flag
      $ domains_arg "Engine domain pool for the instrumented run (default: auto)."
      $ dp_cache_arg $ prometheus_out_arg)

(* ---------------- ticket ---------------- *)

let ticket_cmd =
  let events_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events-out" ] ~docv:"FILE"
          ~doc:"Write the run's structured events to $(docv) as JSON lines.")
  in
  let run ({ Experiments.net; policies; _ } as sc) issue_name trace_out metrics events_out =
    let issue = find_issue sc issue_name in
    print_endline (Heimdall_msp.Issue.to_string issue);
    let current = Heimdall_msp.Workflow.run_current ~production:net ~issue in
    print_string (Heimdall_msp.Workflow.run_to_string current);
    let obs =
      if trace_out <> None || metrics || events_out <> None then
        Some (Heimdall_obs.Obs.create ())
      else None
    in
    let heimdall =
      Heimdall_msp.Workflow.run_heimdall ?obs ~production:net ~policies ~issue ()
    in
    print_string (Heimdall_msp.Workflow.run_to_string heimdall);
    Printf.printf "Heimdall overhead: +%.1f s\n"
      (Heimdall_msp.Workflow.total_s heimdall -. Heimdall_msp.Workflow.total_s current);
    (match (events_out, obs) with
    | Some path, Some o ->
        write_jsonl path "events" Heimdall_obs.Events.emit
          (Heimdall_obs.Events.events o.events)
    | _ -> ());
    Option.iter (fun o -> dump_obs ?trace_out ~metrics o) obs
  in
  Cmd.v
    (Cmd.info "ticket" ~doc:"Run an issue through both workflows")
    Term.(
      const run $ network_arg $ issue_arg 1 $ trace_out_arg $ metrics_flag
      $ events_out_arg)

(* ---------------- serve (the Watchtower) ---------------- *)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 9464
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port for the exporter (0 = kernel-assigned).")
  in
  let interval_arg =
    Arg.(
      value & opt float 5.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Drift-monitor check interval.")
  in
  let once_flag =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "CI mode: replay the scenario's issues, run three drift cycles \
             (clean, injected drift, clear), self-scrape every endpoint and \
             exit — non-zero when a required series or drift transition is \
             missing.")
  in
  (* The series the /metrics page must carry after a replay + drift
     cycle — the contract [make serve-smoke] holds the exporter to. *)
  let required_series =
    [
      "session_commands";
      "policy_checked";
      "workflow_runs";
      "enforcer_sessions";
      "engine_phase_s";
      "drift_checks";
      "drift_active";
      "exporter_requests";
      "runtime_gc_heap_words";
    ]
  in
  let contains hay needle =
    let n = String.length needle and m = String.length hay in
    let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  let run (sc : Experiments.scenario) port interval once domains cache_dir =
    let obs, scoped, engine = replay_issues ?domains ?cache_dir sc sc.Experiments.issues in
    (* The monitor watches an observed-network cell; in a real deployment
       the thunk would poll devices, here it reads the cell that --once
       (or a chaos driver) perturbs. *)
    let observed = ref sc.Experiments.net in
    let monitor =
      Heimdall_msp.Monitor.create ~engine ~obs:scoped ~expected:sc.Experiments.net
        ~observe:(fun () -> !observed)
        sc.Experiments.policies
    in
    let runtime = Heimdall_obs.Runtime.create obs in
    Heimdall_obs.Runtime.add_sampler runtime
      (Heimdall_verify.Engine.runtime_sampler engine);
    let exporter =
      match
        Heimdall_obs.Exporter.create ~port
          ~health:(Heimdall_msp.Monitor.health monitor)
          obs
      with
      | Ok e -> e
      | Error m ->
          prerr_endline ("heimdall serve: " ^ m);
          exit 1
    in
    let shutdown () =
      Heimdall_obs.Exporter.stop exporter;
      Heimdall_msp.Monitor.stop monitor;
      Heimdall_obs.Runtime.stop runtime;
      Heimdall_verify.Engine.shutdown engine
    in
    if once then begin
      Heimdall_obs.Runtime.sample runtime;
      (* Three drift cycles: baseline, injected config drift, restore.
         The transitions double as a self-test of the monitor. *)
      let clean = Heimdall_msp.Monitor.check monitor in
      let issue = List.hd sc.Experiments.issues in
      observed := issue.Heimdall_msp.Issue.inject sc.Experiments.net;
      let detected = Heimdall_msp.Monitor.check monitor in
      observed := sc.Experiments.net;
      let cleared = Heimdall_msp.Monitor.check monitor in
      Printf.printf "drift cycles: %s -> %s -> %s (injected %s)\n" clean detected
        cleared issue.Heimdall_msp.Issue.name;
      let failures = ref [] in
      let fail m = failures := m :: !failures in
      if (clean, detected, cleared) <> ("clean", "detected", "clear") then
        fail "drift monitor did not report clean -> detected -> clear";
      (match
         Heimdall_enforcer.Audit.verify (Heimdall_msp.Monitor.audit monitor)
       with
      | Ok () -> ()
      | Error m -> fail ("monitor audit chain broken: " ^ m));
      Heimdall_obs.Exporter.start exporter;
      let actual_port = Heimdall_obs.Exporter.port exporter in
      (match Heimdall_obs.Exporter.get ~port:actual_port "/metrics" with
      | Error m -> fail ("scrape /metrics: " ^ m)
      | Ok (code, body) ->
          if code <> 200 then fail (Printf.sprintf "/metrics returned %d" code);
          List.iter
            (fun series ->
              if not (contains body series) then
                fail (Printf.sprintf "/metrics is missing series %s" series))
            required_series);
      (match Heimdall_obs.Exporter.get ~port:actual_port "/healthz" with
      | Error m -> fail ("scrape /healthz: " ^ m)
      | Ok (code, body) ->
          if code <> 200 then
            fail (Printf.sprintf "/healthz returned %d: %s" code body));
      List.iter
        (fun path ->
          match Heimdall_obs.Exporter.get ~port:actual_port path with
          | Ok (200, _) -> ()
          | Ok (code, _) -> fail (Printf.sprintf "%s returned %d" path code)
          | Error m -> fail (Printf.sprintf "scrape %s: %s" path m))
        [ "/metrics.json"; "/spans"; "/events" ];
      shutdown ();
      match List.rev !failures with
      | [] ->
          Printf.printf
            "serve --once: all endpoints up, %d required series present, \
             drift transitions ok\n"
            (List.length required_series)
      | failures ->
          List.iter (fun m -> prerr_endline ("serve --once: FAIL — " ^ m)) failures;
          exit 1
    end
    else begin
      Heimdall_obs.Runtime.start runtime;
      Heimdall_msp.Monitor.start ~interval_s:interval monitor;
      Heimdall_obs.Exporter.start exporter;
      Printf.printf
        "watchtower serving on http://127.0.0.1:%d (endpoints: /metrics, \
         /metrics.json, /healthz, /spans, /events); drift check every %gs; \
         Ctrl-C to stop\n\
         %!"
        (Heimdall_obs.Exporter.port exporter)
        interval;
      while true do
        Thread.delay 3600.0
      done
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "The Watchtower: replay a scenario into a live metrics registry, then \
          serve /metrics, /metrics.json, /healthz, /spans and /events over HTTP \
          while a drift monitor re-verifies the network on every digest change")
    Term.(
      const run $ network_arg $ port_arg $ interval_arg $ once_flag
      $ domains_arg "Engine domain pool (default: auto)." $ dp_cache_arg)

(* ---------------- privilege ---------------- *)

let privilege_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the JSON front-end format.")
  in
  let run ({ Experiments.net; _ } as sc) issue_name json =
    let issue = find_issue sc issue_name in
    let { Heimdall_msp.Workflow.slice; privilege = spec; _ } =
      Heimdall_msp.Workflow.prepare ~production:net issue
    in
    Printf.printf "twin slice: %s\n\n" (String.concat ", " slice);
    if json then print_endline (Heimdall_privilege.Json_frontend.render ~pretty:true spec)
    else print_string (Heimdall_privilege.Dsl.render spec)
  in
  Cmd.v
    (Cmd.info "privilege" ~doc:"Print the generated Privilege_msp for an issue")
    Term.(const run $ network_arg $ issue_arg 1 $ json_flag)

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let run { Experiments.net; policies; _ } =
    let summaries = Metrics.sweep_all ~production:net ~policies () in
    print_string
      (Experiments.render_sweep ~title:"bring down each interface; All vs Neighbor vs Heimdall"
         summaries)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Feasibility / attack-surface sweep (Figures 8 and 9)")
    Term.(const run $ network_arg)

(* ---------------- lint / analyze (shared plumbing) ---------------- *)

let lint_json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the findings as a JSON report.")

let lint_severity_arg =
  let sev_conv =
    Arg.enum
      [
        ("error", Heimdall_lint.Diagnostic.Error);
        ("warning", Heimdall_lint.Diagnostic.Warning);
        ("info", Heimdall_lint.Diagnostic.Info);
      ]
  in
  Arg.(
    value
    & opt sev_conv Heimdall_lint.Diagnostic.Info
    & info [ "severity" ] ~docv:"LEVEL"
        ~doc:"Only report findings at or above $(docv): error, warning or info.")

let lint_domains_arg =
  domains_arg "Engine domain pool for the per-device/per-link fan-out (default: auto)."

let lint_rules_flag =
  Arg.(
    value & flag
    & info [ "rules"; "list-rules" ] ~doc:"List every lint rule code and exit.")

let print_lint_rules () =
  let open Heimdall_lint in
  Printf.printf "%-8s %-10s %-8s %s\n" "CODE" "FAMILY" "SEVERITY" "SUMMARY";
  List.iter
    (fun (r : Lint.rule) ->
      Printf.printf "%-8s %-10s %-8s %s\n" r.code
        (Lint.family_to_string r.family)
        (Diagnostic.severity_to_string r.severity)
        r.summary)
    Lint.rules;
  let families =
    List.sort_uniq compare (List.map (fun (r : Lint.rule) -> r.family) Lint.rules)
  in
  Printf.printf "%d rules in %d families\n" (List.length Lint.rules)
    (List.length families)

(* --rules lists the rule registry instead of analysing; otherwise the
   positional target is required. *)
let unless_rules ~docv rules target f =
  match (rules, target) with
  | true, _ -> print_lint_rules ()
  | false, None ->
      Printf.eprintf "heimdall: required argument %s is missing (or pass --rules)\n" docv;
      exit 124
  | false, Some target -> f target

let lint_target_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"NETWORK"
        ~doc:
          "Evaluation network (enterprise or university) or a directory in the \
           loader layout (see the export subcommand).")

(* A scenario name analyses the network plus the privilege spec Heimdall
   would generate for each of its issues; a loader directory analyses
   just the network on disk. *)
let resolve_lint_target target =
  match Experiments.scenario_of_name target with
  | Some sc -> sc
  | None when Sys.file_exists target && Sys.is_directory target -> (
      match Loader.load_dir target with
      | Ok net -> { Experiments.scenario_name = target; net; policies = []; issues = [] }
      | Error e ->
          prerr_endline (Loader.error_to_string e);
          exit 124)
  | None -> (
      match network_of_string target with
      | Error m ->
          prerr_endline ("heimdall: " ^ m);
          exit 124
      | Ok _ -> assert false)

(* Render (and optionally exit non-zero) through the shared severity
   gate: the exit decision is made on the filtered report, so a run that
   prints nothing can never fail. *)
let print_report_and_exit ~name ~json ~header findings_filtered ~fail =
  let open Heimdall_lint in
  if json then
    print_endline
      (Heimdall_json.Json.to_string ~pretty:true
         (match Lint.to_json findings_filtered with
         | Heimdall_json.Json.Obj fields ->
             Heimdall_json.Json.Obj
               (("network", Heimdall_json.Json.String name) :: fields)
         | j -> j))
  else begin
    print_string header;
    print_string (Lint.render findings_filtered)
  end;
  if fail then exit 1

(* ---------------- lint ---------------- *)

let lint_cmd =
  let open Heimdall_lint in
  let run target json severity domains rules cache_dir =
    unless_rules ~docv:"NETWORK" rules target @@ fun target ->
    let { Experiments.scenario_name = name; net; issues; _ } =
      resolve_lint_target target
    in
    let engine = Heimdall_verify.Engine.create ?domains ?cache_dir () in
    let config_findings = Lint.check_network ~engine net in
    (* Also lint the privilege spec Heimdall would generate for each of
       the scenario's issues — the third analyzer family. *)
    let priv_findings =
      List.concat_map
        (fun (issue : Heimdall_msp.Issue.t) ->
          let p = Heimdall_msp.Workflow.prepare ~production:net issue in
          Lint.check_privilege ~network:p.broken ~label:("ticket:" ^ issue.name)
            p.privilege)
        issues
    in
    let findings, fail =
      Lint.apply_severity ~min_severity:severity
        (List.sort Diagnostic.compare (config_findings @ priv_findings))
    in
    let header =
      Printf.sprintf "lint %s: %d devices, %d privilege specs\n" name
        (List.length (Network.node_names net))
        (List.length issues)
    in
    print_report_and_exit ~name ~json ~header findings ~fail
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a network's configs, ACLs and generated privilege specs; \
          exit non-zero on error-severity findings")
    Term.(
      const run $ lint_target_arg $ lint_json_flag $ lint_severity_arg $ lint_domains_arg
      $ lint_rules_flag $ dp_cache_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let open Heimdall_lint in
  let seed_defect_flag =
    Arg.(
      value & flag
      & info [ "seed-defect" ]
          ~doc:
            "Self-test: inject a union-shadow ACL defect that only the packet-set \
             algebra can catch, then analyse.  The run must report ACL004.")
  in
  let plan_flag =
    Arg.(
      value & flag
      & info [ "plan" ]
          ~doc:
            "Also run the static plan-effect analysis (PLAN001-PLAN005) on every \
             ticket's fix script, and check its soundness against twin replay: the \
             predicted packet-set delta must contain the exact post-apply ACL diff, \
             and the static privilege verdict must agree with the monitor (exit \
             non-zero otherwise).")
  in
  let run target json severity domains rules seed_defect plan cache_dir =
    unless_rules ~docv:"NETWORK" rules target @@ fun target ->
    let { Experiments.scenario_name = name; net; policies; issues } =
      resolve_lint_target target
    in
    let net, seeded =
      if seed_defect then
        match Heimdall_poltree.Analysis.seed_acl004 net with
        | Ok (net, node, acl) -> (net, Some (node, acl))
        | Error m ->
            prerr_endline ("heimdall: --seed-defect " ^ m);
            exit 124
      else (net, None)
    in
    let engine = Heimdall_verify.Engine.create ?domains ?cache_dir () in
    let net_findings = Lint.check_network ~engine net in
    (* Per issue: lint the generated spec, replay the scripted fix once
       in a twin session, ask the over-grant analyzer (PRV004) what
       privilege the grant carried that the fix never exercised and,
       with --plan, judge the static plan analysis against the same
       replay. *)
    let per_issue =
      List.map
        (fun (issue : Heimdall_msp.Issue.t) ->
          let label = "ticket:" ^ issue.name in
          let p = Heimdall_msp.Workflow.prepare ~production:net issue in
          let replay = Plan_oracle.replay p in
          let findings =
            Lint.check_privilege ~network:p.broken ~label p.privilege
            @ Lint.check_privilege_usage ~label ~network:p.broken ~spec:p.privilege
                ~changes:replay.changes ()
          in
          let verdict =
            if plan then Some (Plan_oracle.check ~engine ~policies ~label replay)
            else None
          in
          (findings, verdict))
        issues
    in
    let verdicts = List.filter_map snd per_issue in
    let plan_failures = List.concat_map Plan_oracle.failures verdicts in
    let findings, fail =
      Lint.apply_severity ~min_severity:severity
        (List.sort Diagnostic.compare
           (net_findings
           @ List.concat_map fst per_issue
           @ List.concat_map (fun (v : Plan_oracle.verdict) -> v.findings) verdicts))
    in
    let header =
      let acl_count =
        List.fold_left
          (fun n (_, (cfg : Heimdall_config.Ast.t)) -> n + List.length cfg.acls)
          0 (Network.configs net)
      in
      Printf.sprintf "analyze %s: %d devices, %d ACLs, %d tickets%s\n" name
        (List.length (Network.node_names net))
        acl_count (List.length issues)
        (match seeded with
        | Some (node, acl) ->
            Printf.sprintf " [seeded union-shadow defect into %s/%s]" node acl
        | None -> "")
    in
    (* Soundness verdicts go to stderr so --json output stays a
       single clean report. *)
    List.iter (fun m -> prerr_endline ("plan soundness: FAIL — " ^ m)) plan_failures;
    if plan && plan_failures = [] then
      prerr_endline
        (Printf.sprintf
           "plan soundness: %d ticket(s) checked — predicted delta contains the \
            exact diff, privilege verdict agrees with replay"
           (List.length issues));
    print_report_and_exit ~name ~json ~header findings
      ~fail:(fail || plan_failures <> [])
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Semantic static analysis: exact packet-set ACL checks (ACL004/ACL005), \
          network-wide cross-device checks (NET001-NET006), privilege over-grant \
          detection (PRV004) and, with --plan, static plan-effect analysis \
          (PLAN001-PLAN005) with a replay soundness check; exit non-zero on \
          error-severity findings")
    Term.(
      const run $ lint_target_arg $ lint_json_flag $ lint_severity_arg $ lint_domains_arg
      $ lint_rules_flag $ seed_defect_flag $ plan_flag $ dp_cache_arg)

(* ---------------- policy ---------------- *)

(* Resolve a policy-tree source: a .pol/.json file on disk, a generated
   fleet (whose tree is emitted alongside its closed-form policies), or
   a paper scenario (tree mined from the flat spec).  Scenario and fleet
   targets also carry the flat policies, issues and network — enabling
   the POL004 refinement and POL005 ticket cross-checks; file targets
   get structural analysis only. *)
let resolve_policy_target target =
  let open Heimdall_poltree in
  let from_file path =
    let contents =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let parsed =
      if Filename.check_suffix path ".json" then
        match Heimdall_json.Json.of_string_opt contents with
        | None -> Error "invalid JSON"
        | Some j -> Poltree.of_json j
      else Parser.parse_result contents
    in
    match parsed with
    | Ok t -> (path, t, [], [], None)
    | Error m ->
        prerr_endline (Printf.sprintf "heimdall: %s: %s" path m);
        exit 124
  in
  if Sys.file_exists target && not (Sys.is_directory target) then from_file target
  else if String.length target > 6 && String.sub target 0 6 = "fleet:" then
    match Fleetgen.spec_of_string target with
    | Error m ->
        prerr_endline ("heimdall: bad fleet spec: " ^ m);
        exit 124
    | Ok params ->
        let fleet = Fleetgen.generate params in
        ( fleet.Fleetgen.name,
          fleet.Fleetgen.poltree,
          fleet.Fleetgen.policies,
          fleet.Fleetgen.issues,
          Some fleet.Fleetgen.net )
  else
    match Experiments.scenario_of_name target with
    | None ->
        prerr_endline
          (Printf.sprintf
             "heimdall: unknown policy target %S (expected a scenario name, a fleet \
              spec or a .pol/.json file)"
             target);
        exit 124
    | Some sc ->
        let tree =
          Mine.of_policies
            ~segs:(Mine.segs_of_network sc.Experiments.net)
            sc.Experiments.policies
        in
        ( sc.Experiments.scenario_name,
          tree,
          sc.Experiments.policies,
          sc.Experiments.issues,
          Some sc.Experiments.net )

(* The same ticket construction the analyze/lint paths use, so POL005
   judges exactly the privilege specs Heimdall would grant. *)
let poltree_tickets net issues =
  List.map
    (fun (issue : Heimdall_msp.Issue.t) ->
      Plan_oracle.ticket ~label:("ticket:" ^ issue.name)
        (Heimdall_msp.Workflow.prepare ~production:net issue))
    issues

let policy_cmd =
  let open Heimdall_lint in
  let open Heimdall_poltree in
  let show_flag =
    Arg.(
      value & flag
      & info [ "show" ] ~doc:"Print the tree in canonical text form and exit.")
  in
  let compile_flag =
    Arg.(
      value & flag
      & info [ "compile" ]
          ~doc:"Print the compiled form (per-leaf permit sets and waypoints) and exit.")
  in
  let diff_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"OTHER"
          ~doc:
            "Compile both trees and report their exact semantic difference with \
             witness packets; exit non-zero when they differ.")
  in
  let seed_conv = Arg.enum [ ("pol001", `Pol001); ("pol004", `Pol004) ] in
  let seed_arg =
    Arg.(
      value
      & opt (some seed_conv) None
      & info [ "seed-defect" ] ~docv:"RULE"
          ~doc:
            "Self-test: inject a defect only the named analysis can catch (pol001: a \
             root deny! contradicting a descendant allow; pol004: a flipped leaf \
             allow breaking refinement), then analyse.  The run must exit non-zero.")
  in
  let run target json severity domains rules show compiled diff_target seed cache_dir =
    unless_rules ~docv:"TARGET" rules target @@ fun target ->
    let name, tree, policies, issues, network = resolve_policy_target target in
    let tree, seeded =
      match seed with
      | None -> (tree, None)
      | Some kind -> (
          let seeder, code =
            match kind with
            | `Pol001 -> (Analysis.seed_pol001, "POL001")
            | `Pol004 -> (Analysis.seed_pol004, "POL004")
          in
          match seeder tree with
          | Ok t -> (t, Some code)
          | Error m ->
              prerr_endline ("heimdall: --seed-defect: " ^ m);
              exit 124)
    in
    if show then print_string (Poltree.render tree)
    else
      match Compile.compile tree with
      | Error m ->
          prerr_endline ("heimdall: compile: " ^ m);
          exit 124
      | Ok c -> (
          match diff_target with
          | Some other -> (
              let other_name, other_tree, _, _, _ = resolve_policy_target other in
              match Compile.compile other_tree with
              | Error m ->
                  prerr_endline
                    (Printf.sprintf "heimdall: compile %s: %s" other_name m);
                  exit 124
              | Ok oc ->
                  let d = Compile.diff c oc in
                  if Compile.diff_is_empty d then
                    Printf.printf "%s and %s are semantically identical\n" name
                      other_name
                  else begin
                    print_string (Compile.render_diff d);
                    exit 1
                  end)
          | None ->
              if compiled then begin
                Printf.printf
                  "compiled %s: %d nodes (%d leaves), %d permit cubes, %d \
                   waypoint sets\n"
                  name
                  (List.length c.Compile.nodes)
                  (List.length c.Compile.leaves)
                  (Packet_set.cube_count c.Compile.permit)
                  (List.length c.Compile.requires);
                List.iter
                  (fun (l : Compile.leaf) ->
                    Printf.printf "  %-40s permit %4d cubes%s\n" l.Compile.leaf_path
                      (Packet_set.cube_count l.Compile.leaf_permit)
                      (match l.Compile.leaf_requires with
                      | [] -> ""
                      | ws ->
                          "  via "
                          ^ String.concat ", " (List.map fst ws)))
                  c.Compile.leaves
              end
              else
                let engine = Heimdall_verify.Engine.create ?domains ?cache_dir () in
                let tickets =
                  match network with
                  | Some net -> poltree_tickets net issues
                  | None -> []
                in
                let findings =
                  Analysis.check ~engine ~policies ~tickets ?network c
                in
                let findings, fail =
                  Lint.apply_severity ~min_severity:severity findings
                in
                let header =
                  Printf.sprintf
                    "policy %s: %d nodes, %d rules, %d leaves, %d flat policies, \
                     %d tickets%s\n"
                    name
                    (List.length c.Compile.nodes)
                    (Poltree.rule_count tree)
                    (List.length c.Compile.leaves)
                    (List.length policies) (List.length tickets)
                    (match seeded with
                    | Some code -> Printf.sprintf " [seeded %s defect]" code
                    | None -> "")
                in
                print_report_and_exit ~name ~json ~header findings ~fail)
  in
  let target_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Policy-tree source: a scenario name (enterprise, university), a fleet \
             spec (fleet:fat-tree:k=4), or a .pol/.json tree file.")
  in
  Cmd.v
    (Cmd.info "policy"
       ~doc:
         "Parse, compile and statically analyse a hierarchical policy tree \
          (POL001-POL006): exact child-override semantics, refinement against the \
          flat policy spec with witness packets, and ticket-privilege cross-checks; \
          exit non-zero on error-severity findings")
    Term.(
      const run $ target_arg $ lint_json_flag $ lint_severity_arg $ lint_domains_arg
      $ lint_rules_flag $ show_flag $ compile_flag $ diff_arg $ seed_arg $ dp_cache_arg)

(* ---------------- conflicts ---------------- *)

let conflicts_cmd =
  let seed_overlap_flag =
    Arg.(
      value & flag
      & info [ "seed-overlap" ]
          ~doc:
            "Self-test: resubmit the first ticket's plan as a synthetic concurrent \
             ticket.  The run must report plan.conflict and exit non-zero.")
  in
  let run (sc : Experiments.scenario) seed_overlap =
    let open Heimdall_enforcer in
    let tickets =
      List.map
        (fun (issue : Heimdall_msp.Issue.t) ->
          let script = Heimdall_sem.Plan_sem.script_of_commands issue.fix_commands in
          {
            Mediator.label = issue.name;
            changes = script.Heimdall_sem.Plan_sem.script_changes;
          })
        sc.Experiments.issues
    in
    let tickets =
      if seed_overlap then
        match tickets with
        | first :: _ ->
            tickets @ [ { first with Mediator.label = "overlap-" ^ first.label } ]
        | [] ->
            prerr_endline "heimdall: --seed-overlap needs at least one ticket";
            exit 124
      else tickets
    in
    let decision = Mediator.mediate ~network:sc.Experiments.net tickets in
    List.iter
      (fun ((t : Mediator.ticket), c) ->
        Printf.printf "%s (holding %s)\n" (Mediator.conflict_to_string c) t.label)
      decision.Mediator.held;
    Printf.printf "conflicts %s: %d ticket(s), %d admitted, %d held\n"
      sc.Experiments.scenario_name (List.length tickets)
      (List.length decision.Mediator.admitted)
      (List.length decision.Mediator.held);
    if decision.Mediator.held <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "conflicts"
       ~doc:
         "Statically mediate the scenario's tickets as concurrent in-flight plans: \
          extract each fix script's changes without executing anything, intersect \
          footprints and predicted packet-set deltas, and hold the later of any \
          colliding pair; exit non-zero when a ticket is held")
    Term.(const run $ network_arg $ seed_overlap_flag)

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "table1, fig7, fig8, fig9, ablation-verify, ablation-slicer, ablation-audit or containment.")
  in
  let run name =
    match name with
    | "table1" -> print_string (Experiments.render_table1 (Experiments.table1 ()))
    | "fig7" ->
        let cells = Experiments.fig7 () in
        print_string (Experiments.render_fig7 cells);
        List.iter
          (fun (i, o) -> Printf.printf "overhead %s: +%.1f s\n" i o)
          (Experiments.fig7_overhead cells)
    | "fig8" ->
        print_string
          (Experiments.render_sweep ~title:"Figure 8 (enterprise)" (Experiments.fig8 ()))
    | "fig9" ->
        print_string
          (Experiments.render_sweep ~title:"Figure 9 (university)" (Experiments.fig9 ()))
    | "ablation-verify" ->
        print_string (Experiments.render_ablation_verify (Experiments.ablation_verify ()))
    | "ablation-slicer" ->
        print_string (Experiments.render_ablation_slicer (Experiments.ablation_slicer ()))
    | "ablation-audit" ->
        print_string (Experiments.render_ablation_audit (Experiments.ablation_audit ()))
    | "containment" ->
        print_string (Experiments.render_containment (Experiments.attack_containment ()))
    | other ->
        Printf.eprintf "unknown experiment %S\n" other;
        exit 1
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Print a paper artifact") Term.(const run $ name_arg)

(* ---------------- audit ---------------- *)

let audit_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Exported audit trail (JSON lines).")
  in
  let run file =
    let text =
      match open_in_bin file with
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
      | exception Sys_error m ->
          prerr_endline m;
          exit 1
    in
    match Heimdall_enforcer.Audit.import text with
    | Ok audit ->
        Printf.printf "audit trail verifies: %d records, head %s\n"
          (Heimdall_enforcer.Audit.length audit)
          (Heimdall_enforcer.Audit.head audit);
        print_endline (Heimdall_enforcer.Audit.to_string audit)
    | Error m ->
        Printf.eprintf "AUDIT TRAIL REJECTED: %s\n" m;
        exit 1
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Verify an exported audit trail (tamper check + listing)")
    Term.(const run $ file_arg)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Fault-plan seed; the same seed reproduces the same run bit for bit.")
  in
  let max_attempts_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-attempts" ] ~docv:"K"
          ~doc:"Per-step retry budget for flaky commands and the transactional apply.")
  in
  let run sc issue_name seed max_attempts trace_out metrics domains cache_dir =
    let issues = resolve_issues sc issue_name in
    let obs =
      if trace_out <> None || metrics then Some (Heimdall_obs.Obs.create ())
      else None
    in
    let engine = Heimdall_verify.Engine.create ?domains ?obs ?cache_dir () in
    let results =
      List.map
        (fun issue -> Chaos.run ~engine ?max_attempts ~scenario:sc ~issue ~seed ())
        issues
    in
    List.iter (fun r -> print_string (Chaos.render r)) results;
    Option.iter (fun o -> dump_obs ?trace_out ~metrics o) obs;
    if not (List.for_all Chaos.passed results) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run an issue through the Heimdall workflow under a seeded fault plan \
          (flaky devices, partial applies, link flaps, crashes, an enclave restart) \
          and check that enforcement recovers; exit non-zero if any run fails")
    Term.(
      const run $ network_arg $ issue_opt_arg "run under faults" $ seed_arg
      $ max_attempts_arg $ trace_out_arg $ metrics_flag
      $ domains_arg "Engine domain pool (default: auto; verdicts do not depend on it)."
      $ dp_cache_arg)

(* ---------------- scale ---------------- *)

(* Fleet-scale end-to-end: generate a seeded fleet, then run the whole
   lint → twin → verify → schedule → audit pipeline over it, gating on
   determinism (regenerate + re-verify byte-identical), lint errors,
   policy violations, unresolved issues and cross-domain-count verdict
   drift.  Exit non-zero on any failure so CI can use it as a smoke. *)
let scale_cmd =
  let shape_arg =
    Arg.(
      value
      & opt string "fat-tree"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:"Fleet shape: fat-tree, leaf-spine or multi-campus.")
  in
  let dim name doc =
    Arg.(
      value
      & opt (some int) None
      & info [ name ] ~docv:"N" ~doc)
  in
  let k_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "k"; "arity" ] ~docv:"N" ~doc:"Fat-tree arity (even, 4-32).")
  in
  let spines_arg = dim "spines" "Leaf-spine: number of spines." in
  let leaves_arg = dim "leaves" "Leaf-spine: number of leaves." in
  let campuses_arg = dim "campuses" "Multi-campus: number of campuses." in
  let buildings_arg = dim "buildings" "Multi-campus: access routers per campus." in
  let hosts_arg = dim "hosts" "Hosts attached per edge subnet (default 2)." in
  let policies_arg = dim "policies" "Closed-form policies per edge subnet (default 2)." in
  let mode_arg =
    Arg.(
      value
      & opt string "closed"
      & info [ "policy-mode" ] ~docv:"MODE"
          ~doc:"Policy source: closed (closed-form intents) or mined (spec miner).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Issue-placement seed; topology and configs do not depend on it.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:
            "Full fleet spec (e.g. fat-tree:k=8:seed=7); overrides the \
             individual shape flags.")
  in
  let skip_issues_flag =
    Arg.(
      value & flag
      & info [ "no-issues" ]
          ~doc:"Skip the per-issue workflow runs (generation + verification only).")
  in
  let run shape k spines leaves campuses buildings hosts policies mode seed spec
      domains cache_dir skip_issues =
    let spec =
      match spec with
      | Some s -> s
      | None ->
          let kv name = function
            | None -> []
            | Some v -> [ Printf.sprintf "%s=%d" name v ]
          in
          String.concat ":"
            ((shape :: kv "k" k)
            @ kv "spines" spines @ kv "leaves" leaves @ kv "campuses" campuses
            @ kv "buildings" buildings @ kv "hosts" hosts @ kv "policies" policies
            @ [ "mode=" ^ mode; "seed=" ^ string_of_int seed ])
    in
    let params =
      match Heimdall_scenarios.Fleetgen.spec_of_string spec with
      | Ok p -> p
      | Error m ->
          prerr_endline ("heimdall: bad fleet spec: " ^ m);
          exit 124
    in
    let r =
      Scale.run ?domains ?cache_dir ~issues:(if skip_issues then `None else `All) params
    in
    let fleet = r.Scale.fleet in
    let print_gates stage =
      List.iter
        (fun (g : Scale.gate) ->
          if g.stage = stage then
            Printf.printf "%-42s %s\n" g.name (if g.ok then "ok" else "FAIL"))
        r.Scale.gates
    in
    Printf.printf "fleet %s\n" fleet.name;
    Printf.printf "devices: %d  links: %d  policies: %d  config lines: %d\n"
      (Fleetgen.device_count fleet) (Fleetgen.link_count fleet)
      (List.length fleet.policies)
      (Network.total_config_lines fleet.net);
    Printf.printf "generation: %.3f s\n" r.generate_s;
    Result.iter_error (fun e -> prerr_endline ("  " ^ e)) r.validation;
    print_gates Scale.Generation;
    let errors = Scale.lint_errors r in
    List.iter
      (fun d -> prerr_endline ("  " ^ Heimdall_lint.Diagnostic.to_string d))
      errors;
    Printf.printf "lint: %d findings, %d errors (%.3f s)\n" (List.length r.findings)
      (List.length errors) r.lint_s;
    print_gates Scale.Lint;
    let violations = r.report.Heimdall_verify.Policy.violations in
    List.iter
      (fun (p, reason) ->
        prerr_endline
          ("  violated: " ^ Heimdall_verify.Policy.to_string p ^ " — " ^ reason))
      violations;
    Printf.printf "verify: %d policies, %d violations (dataplane %.3f s, check %.3f s)\n"
      r.report.Heimdall_verify.Policy.total (List.length violations) r.dataplane_s
      r.check_s;
    print_gates Scale.Verify;
    List.iter
      (fun (i : Scale.issue_run) ->
        Printf.printf "issue %-10s %s, %d denied (%.3f s)\n" i.issue
          (if i.resolved then "resolved" else "NOT resolved")
          i.denied i.wall_s;
        print_gates (Scale.Issue i.issue))
      r.issues;
    Option.iter
      (fun kb -> Printf.printf "peak RSS: %.1f MB\n" (float_of_int kb /. 1024.))
      r.peak_rss_kb;
    let passed = Scale.passed r in
    Printf.printf "scale gate: %s\n" (if passed then "PASS" else "FAIL");
    if not passed then exit 1
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Generate a fleet-scale network (fat-tree, leaf-spine or multi-campus) \
          and run the full lint/verify/schedule/audit pipeline over it, gating \
          on determinism, lint errors, policy violations and issue resolution; \
          exit non-zero on any failure")
    Term.(
      const run $ shape_arg $ k_arg $ spines_arg $ leaves_arg $ campuses_arg
      $ buildings_arg $ hosts_arg $ policies_arg $ mode_arg $ seed_arg $ spec_arg
      $ domains_arg
          "Engine domain pool for the N-domain leg of the determinism check \
           (default: auto, at least 2)."
      $ dp_cache_arg $ skip_issues_flag)

(* ---------------- shell ---------------- *)

let shell_cmd =
  let emergency_flag =
    Arg.(value & flag & info [ "emergency" ]
           ~doc:"Bypass the twin: commands hit production through the enforcer.")
  in
  (* Read and answer lines until EOF, "quit" or "exit". *)
  let repl prompt exec =
    let rec loop () =
      print_string prompt;
      match read_line () with
      | exception End_of_file -> ()
      | "quit" | "exit" -> ()
      | line when String.trim line = "" -> loop ()
      | line ->
          (match exec line with
          | Ok out -> print_string out
          | Error m -> print_endline ("% " ^ m));
          loop ()
    in
    loop ()
  in
  let run ({ Experiments.net; policies; _ } as sc) issue_name emergency =
    let issue = find_issue sc issue_name in
    let { Heimdall_msp.Workflow.broken; slice; privilege; _ } =
      Heimdall_msp.Workflow.prepare ~production:net issue
    in
    print_endline (Heimdall_msp.Issue.to_string issue);
    Printf.printf "twin slice: %s\n" (String.concat ", " slice);
    print_endline "type commands ('quit' to leave; e.g. 'connect r4', 'show ip route'):";
    if emergency then begin
      let session =
        Heimdall_msp.Emergency.open_session ~reason:"operator shell" ~production:broken
          ~policies ~privilege ()
      in
      repl "heimdall(EMERGENCY)> " (fun line ->
          Result.map_error Heimdall_msp.Emergency.refusal_to_string
            (Heimdall_msp.Emergency.exec session line));
      print_endline "--- emergency audit trail ---";
      print_endline
        (Heimdall_enforcer.Audit.to_string (Heimdall_msp.Emergency.audit session))
    end
    else begin
      let em = Heimdall_twin.Twin.of_slice ~production:broken slice in
      let session = Heimdall_twin.Twin.open_session ~privilege em in
      repl "heimdall(twin)> " (fun line ->
          Result.map_error Heimdall_twin.Session.error_to_string
            (Heimdall_twin.Session.exec session line));
      print_endline "--- enforcer ---";
      let outcome =
        Heimdall_enforcer.Enforcer.process ~production:broken ~policies ~privilege
          ~session ()
      in
      print_string (Heimdall_enforcer.Enforcer.outcome_to_string outcome)
    end
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:"Interactive technician session on a ticket's twin (or production in emergency mode)")
    Term.(const run $ network_arg $ issue_arg 1 $ emergency_flag)

(* ---------------- export / load ---------------- *)

let export_cmd =
  let dir_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run { Experiments.net; _ } dir =
    Loader.save_dir dir net;
    Printf.printf "wrote %s/topology.txt and %d configs\n" dir
      (List.length (Network.node_names net))
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a network to disk in the loader layout")
    Term.(const run $ network_arg $ dir_arg)

let load_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Directory with topology.txt and configs/.")
  in
  let run dir =
    match Loader.load_dir dir with
    | Error e ->
        prerr_endline (Loader.error_to_string e);
        exit 1
    | Ok net ->
        let topo = Network.topology net in
        Printf.printf "loaded %d nodes, %d links; validation ok\n"
          (Topology.node_count topo) (Topology.link_count topo);
        let policies =
          Heimdall_verify.Spec_miner.mine (Dataplane.compute net)
        in
        Printf.printf "mined %d policies\n" (List.length policies)
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load and validate a network from disk, then mine its policies")
    Term.(const run $ dir_arg)

let () =
  let doc = "least privilege for managed network services (Heimdall)" in
  let info = Cmd.info "heimdall" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            network_cmd;
            config_cmd;
            mine_cmd;
            lint_cmd;
            analyze_cmd;
            policy_cmd;
            conflicts_cmd;
            trace_cmd;
            ticket_cmd;
            privilege_cmd;
            sweep_cmd;
            experiment_cmd;
            export_cmd;
            load_cmd;
            shell_cmd;
            audit_cmd;
            obs_cmd;
            serve_cmd;
            chaos_cmd;
            scale_cmd;
          ]))
