(* The traced run: each unit of work replayed stage by stage through the
   same public calls the program makes, with a wall-clock timer around
   each call.  Nothing inside the library is instrumented; the stage
   names are the per-layer metric names without their unit suffix. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_verify
open Heimdall_privilege
open Heimdall_twin
open Heimdall_enforcer
open Heimdall_msp

let now = Heimdall_obs.Clock.now_s

(* Seconds spent per stage name within one unit.  With [on = false] the
   recorder only runs the calls, which gives the same replay untimed. *)
type stages = { on : bool; mutable spent : (string * float) list }

let stages on = { on; spent = [] }

let stage st name f =
  if not st.on then f ()
  else begin
    let t0 = now () in
    let x = f () in
    let d = Heimdall_obs.Clock.clamp (now () -. t0) in
    let prev = Option.value (List.assoc_opt name st.spent) ~default:0.0 in
    st.spent <- (name, prev +. d) :: List.remove_assoc name st.spent;
    x
  end

let total st = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 st.spent

(* ------------------------------------------------------------------ *)
(* One ticket: Workflow.run_heimdall, then Enforcer.process             *)
(* ------------------------------------------------------------------ *)

type ticket = {
  approved : bool;
  resolved : bool;
  denied : int;
  audit : Audit.t;
  final : Network.t;
  broken : Network.t;
  slice_nodes : int;
}

(* Enforcer.process's lint delta: findings on the twin as left by the
   technician that were not present at twin creation. *)
let lint_delta engine emulation =
  let open Heimdall_lint in
  let baseline =
    Lint.check_network ~engine ~twin_exposed:true (Emulation.baseline emulation)
  in
  let current =
    Lint.check_network ~engine ~twin_exposed:true (Emulation.network emulation)
  in
  List.filter (fun d -> not (List.exists (Diagnostic.equal d) baseline)) current

(* Enforcer.process's semantic diff of every ACL on every device. *)
let session_acl_diffs emulation =
  let before = Emulation.baseline emulation in
  let after = Emulation.network emulation in
  List.concat_map
    (fun node ->
      let acls net =
        match Network.config node net with Some (cfg : Ast.t) -> cfg.acls | None -> []
      in
      let names =
        List.sort_uniq String.compare
          (List.map (fun (a : Acl.t) -> a.name) (acls before @ acls after))
      in
      List.filter_map
        (fun name ->
          let find net =
            match Network.config node net with
            | Some cfg -> Option.value (Ast.find_acl name cfg) ~default:(Acl.empty name)
            | None -> Acl.empty name
          in
          let d = Heimdall_sem.Acl_sem.diff ~before:(find before) ~after:(find after) in
          if Heimdall_sem.Acl_sem.diff_is_empty d then None else Some (node, name, d))
        names)
    (Network.node_names after)

let append_all audit ~action ~resource ~detail ~verdict items =
  List.fold_left
    (fun audit x ->
      Audit.append ~actor:"enforcer" ~action:(action x) ~resource:(resource x)
        ~detail:(detail x) ~verdict:(verdict x) audit)
    audit items

let ticket st ~engine ~production ~policies (issue : Issue.t) =
  let broken = issue.inject production in
  let endpoints = issue.ticket.endpoints in
  let slice =
    stage st "twin.slice" (fun () -> Twin.slice_nodes ~production:broken ~endpoints ())
  in
  let privilege =
    stage st "msp.privgen" (fun () -> Priv_gen.for_ticket ~network:broken ~slice issue.ticket)
  in
  stage st "sem.preflight" (fun () ->
      let open Heimdall_sem.Plan_sem in
      let script = script_of_commands issue.fix_commands in
      ignore (prove ~spec:privilege (plan_requirements ~network:broken script));
      ignore (analyze ~network:broken script.script_changes));
  let emulation =
    stage st "twin.build" (fun () ->
        let em = Twin.build ~production:broken ~endpoints () in
        ignore (Emulation.dataplane em);
        em)
  in
  let session =
    stage st "twin.session" (fun () ->
        let s = Twin.open_session ~privilege emulation in
        ignore (Session.exec_many s issue.fix_commands);
        s)
  in
  let changes, audit =
    stage st "enforcer.audit" (fun () ->
        (Emulation.changes emulation, Audit.of_session_log (Session.log session)))
  in
  let verdict =
    stage st "enforcer.verify" (fun () ->
        Verifier.verify ~engine ~production:broken ~policies ~privilege ~changes ())
  in
  let lint_findings = stage st "lint.delta" (fun () -> lint_delta engine emulation) in
  let sem_findings, acl_diffs =
    stage st "sem.precheck" (fun () ->
        let acl_diffs = session_acl_diffs emulation in
        ( Heimdall_lint.Lint.check_privilege_usage ~network:broken ~spec:privilege ~changes
            (),
          acl_diffs ))
  in
  let audit =
    stage st "enforcer.audit" (fun () ->
        let open Heimdall_lint in
        let severity (d : Diagnostic.t) = Diagnostic.severity_to_string d.severity in
        let audit =
          append_all audit changes
            ~action:(fun (c : Change.t) -> Change.op_action_name c.op)
            ~resource:(fun (c : Change.t) -> c.node)
            ~detail:Change.to_string ~verdict:(fun _ -> "extracted")
        in
        let audit =
          append_all audit lint_findings
            ~action:(fun _ -> "lint")
            ~resource:(fun (d : Diagnostic.t) -> Option.value d.device ~default:"twin")
            ~detail:Diagnostic.to_string ~verdict:severity
        in
        let audit =
          append_all audit acl_diffs
            ~action:(fun _ -> "sem.diff")
            ~resource:(fun (node, _, _) -> node)
            ~detail:(fun (_, name, d) ->
              Printf.sprintf "acl %s: %s" name (Heimdall_sem.Acl_sem.diff_to_string d))
            ~verdict:(fun _ -> "recorded")
        in
        let audit =
          append_all audit sem_findings
            ~action:(fun _ -> "sem.overgrant")
            ~resource:(fun (d : Diagnostic.t) ->
              Option.value d.device ~default:"privilege")
            ~detail:Diagnostic.to_string ~verdict:severity
        in
        append_all audit verdict.rejections
          ~action:(fun _ -> "verify")
          ~resource:(fun _ -> "production")
          ~detail:Verifier.rejection_to_string ~verdict:(fun _ -> "rejected"))
  in
  let unapproved audit =
    {
      approved = false;
      resolved = false;
      denied = Session.denied_count session;
      audit;
      final = broken;
      broken;
      slice_nodes = List.length slice;
    }
  in
  if not verdict.accepted then unapproved audit
  else
    match
      stage st "enforcer.schedule" (fun () ->
          Scheduler.plan ~engine ~production:broken ~policies ~changes ())
    with
    | Error _ -> unapproved audit
    | Ok (plan, updated) ->
        let impact =
          stage st "verify.impact" (fun () ->
              let before = Engine.dataplane engine broken in
              let after = Engine.dataplane ~base:before engine updated in
              Reachability.diff
                ~before:(Reachability.compute ~engine before)
                ~after:(Reachability.compute ~engine after))
        in
        let apply =
          stage st "enforcer.apply" (fun () -> Applier.run ~production:broken ~plan ~audit ())
        in
        let audit =
          stage st "enforcer.audit" (fun () ->
              let audit =
                Audit.append ~actor:"enforcer" ~action:"verify" ~resource:"production"
                  ~detail:
                    (Printf.sprintf "%d changes approved, %d policies repaired; impact: %s"
                       (List.length changes)
                       (List.length verdict.fixed_policies)
                       (Reachability.impact_to_string impact))
                  ~verdict:"approved" apply.audit
              in
              let head = Audit.head audit in
              ignore (Enclave.attest Enforcer.default_enclave ~report_data:head);
              ignore (Enclave.seal Enforcer.default_enclave head);
              audit)
        in
        let final = apply.network in
        let resolved =
          stage st "verify.probe" (fun () ->
              Trace.is_delivered (Trace.trace (Dataplane.compute final) issue.probe))
        in
        {
          approved = true;
          resolved;
          denied = Session.denied_count session;
          audit;
          final;
          broken;
          slice_nodes = List.length slice;
        }

(* ------------------------------------------------------------------ *)
(* One sweep pass: Metrics.sweep_all on a one-domain engine             *)
(* ------------------------------------------------------------------ *)

module Metrics = Heimdall_scenarios.Metrics

(* One failure point, carrying its own stage times through the prepare
   pass and the three evaluate passes. *)
type point = {
  failed : Topology.endpoint;
  broken : Network.t;
  endpoints : string list;
  ticket : Ticket.t;
  point_stages : stages;
  mutable slice_size : int;
}

(* Metrics.incident_endpoints: the endpoints of the first ICMP policy
   this failure newly breaks, found with the engine's cached traces, or
   the failed link's two ends. *)
let incident_endpoints engine production dp policies healthy_violated
    (failed : Topology.endpoint) =
  let broken_policy =
    List.find_opt
      (fun (p : Policy.t) ->
        (not (List.mem p.id healthy_violated))
        && p.flow.proto = Flow.Icmp
        &&
        match Policy.verdict_of_trace p (Engine.trace engine dp p.flow) with
        | Policy.Violated _ -> true
        | Policy.Holds -> false)
      policies
  in
  match broken_policy with
  | Some p ->
      List.filter_map
        (fun a -> Option.map fst (Network.owner_of_address a production))
        [ p.flow.src; p.flow.dst ]
  | None -> (
      match Topology.peer failed (Network.topology production) with
      | Some peer -> [ failed.node; peer.node ]
      | None -> [ failed.node ])

let kind_of net node = Option.value (Network.kind node net) ~default:Topology.Host

(* Metrics.privilege_for, with the Heimdall technique's slice and
   privilege generation timed apart. *)
let privilege_for st (p : point) = function
  | Metrics.All_access -> stage st "msp.privgen" (fun () -> Privilege.allow_all)
  | Metrics.Neighbor_access ->
      stage st "msp.privgen" (fun () ->
          let topo = Network.topology p.broken in
          let nodes =
            List.concat_map (fun e -> e :: Topology.neighbors e topo) p.endpoints
            |> List.sort_uniq String.compare
          in
          Privilege.of_predicates [ Privilege.allow ~actions:[ "*" ] ~nodes () ])
  | Metrics.Heimdall_twin ->
      let slice =
        stage st "twin.slice" (fun () -> Slicer.slice Slicer.Task p.broken ~endpoints:p.endpoints)
      in
      p.slice_size <- List.length slice;
      stage st "msp.privgen" (fun () ->
          Priv_gen.for_ticket ~network:p.broken ~slice p.ticket)

let dangerous_action a =
  (not (Action.is_read_only a)) && a <> "secret.set" && a <> "interface.description"

(* Metrics.attack_surface, term for term, so that the floats agree. *)
let attack_surface net policies healthy_paths privilege =
  let nodes = Network.node_names net in
  let allowed_by_node =
    List.map
      (fun n -> (n, Privilege.allowed_actions privilege ~node:n ~kind:(kind_of net n)))
      nodes
  in
  let sum_c =
    List.fold_left (fun acc (_, actions) -> acc + List.length actions) 0 allowed_by_node
  in
  let sum_a =
    List.fold_left (fun acc n -> acc + List.length (Action.available_on (kind_of net n))) 0 nodes
  in
  let node_dangerous n =
    match List.assoc_opt n allowed_by_node with
    | Some actions -> List.exists dangerous_action actions
    | None -> false
  in
  let vp =
    List.length
      (List.filter
         (fun (p : Policy.t) ->
           match List.assoc_opt p.id healthy_paths with
           | Some path -> List.exists node_dangerous path
           | None -> false)
         policies)
  in
  let total_p = max 1 (List.length policies) in
  let exposed = List.length (List.filter (fun (_, actions) -> actions <> []) allowed_by_node) in
  ( ((float_of_int sum_c /. float_of_int (max 1 sum_a) *. 0.5)
    +. (float_of_int vp /. float_of_int total_p *. 0.5))
    *. 100.0,
    exposed )

let summarise technique (points : Metrics.point list) =
  let n = max 1 (List.length points) in
  {
    Metrics.technique;
    points;
    feasibility_pct =
      100.0
      *. float_of_int (List.length (List.filter (fun (p : Metrics.point) -> p.feasible) points))
      /. float_of_int n;
    attack_surface_pct =
      List.fold_left (fun acc (p : Metrics.point) -> acc +. p.attack_surface) 0.0 points
      /. float_of_int n;
  }

(* The same calls as Metrics.sweep_all, in the same order: the prepare
   pass (healthy dataplane, healthy paths, one Policy.check_all, then per
   failure point an incremental dataplane and the incident scan), then
   one evaluate pass per technique (privilege and attack surface per
   point).  Pass-level stages go to [st], per-point ones to each point's
   own [point_stages]. *)
let sweep st ~engine ~production ~policies =
  let healthy_dp =
    stage st "control.dataplane" (fun () -> Engine.dataplane engine production)
  in
  let healthy_paths =
    stage st "verify.paths" (fun () ->
        List.map
          (fun (p : Policy.t) ->
            (p.id, Trace.nodes_on_path (Engine.trace engine healthy_dp p.flow)))
          policies)
  in
  let healthy_violated =
    stage st "verify.check_all" (fun () ->
        (Policy.check_all ~engine healthy_dp policies).violations
        |> List.map (fun ((p : Policy.t), _) -> p.id))
  in
  let points =
    List.map
      (fun (failed : Topology.endpoint) ->
        let pst = stages st.on in
        let broken =
          stage pst "net.apply" (fun () ->
              let change =
                Change.v failed.node
                  (Change.Set_interface_enabled { iface = failed.iface; enabled = false })
              in
              match Network.apply_changes [ change ] production with
              | Ok net -> net
              | Error m -> failwith m)
        in
        let dp =
          stage pst "control.recompute" (fun () ->
              Engine.dataplane ~base:healthy_dp engine broken)
        in
        let endpoints =
          stage pst "verify.incident" (fun () ->
              incident_endpoints engine production dp policies healthy_violated failed)
        in
        let ticket =
          Ticket.make ~id:"SWEEP" ~kind:Ticket.Connectivity
            ~description:"interface failure sweep" ~endpoints
        in
        { failed; broken; endpoints; ticket; point_stages = pst; slice_size = 0 })
      (Metrics.failure_candidates production)
  in
  let summaries =
    List.map
      (fun technique ->
        summarise technique
          (List.map
             (fun p ->
               let privilege = privilege_for p.point_stages p technique in
               stage p.point_stages "verify.surface" (fun () ->
                   let feasible =
                     Privilege.allows privilege
                       (Privilege.request ~iface:p.failed.iface "interface.up" p.failed.node)
                   in
                   let surface, exposed =
                     attack_surface production policies healthy_paths privilege
                   in
                   { Metrics.failed = p.failed; feasible; attack_surface = surface;
                     exposed_nodes = exposed }))
             points))
      [ Metrics.All_access; Metrics.Neighbor_access; Metrics.Heimdall_twin ]
  in
  (summaries, points)

(* The control plane's parts, timed on one network outside any unit's
   wall time: its L2 pass and its OSPF pass. *)
let control_parts net =
  let t0 = now () in
  let l2 = L2.compute net in
  let t1 = now () in
  ignore (Ospf.all_routes net l2);
  let t2 = now () in
  [ ("control.l2", t1 -. t0); ("control.ospf", t2 -. t1) ]
