open Heimdall_net
open Heimdall_lint
open Heimdall_privilege
open Heimdall_verify

let witness s =
  match Packet_set.sample s with Some f -> Flow.to_string f | None -> "<none>"

let rule_obj (cr : Compile.crule) = Printf.sprintf "rule %d" (cr.index + 1)

let is_ancestor_of ~(ancestor : Compile.cnode) (cn : Compile.cnode) =
  String.length cn.path > String.length ancestor.path
  && String.sub cn.path 0 (String.length ancestor.path + 1) = ancestor.path ^ "/"

let in_subtree ~(top : Compile.cnode) (cn : Compile.cnode) =
  cn.path = top.path || is_ancestor_of ~ancestor:top cn

(* ---------------- POL001/002/003: per-node structural checks -------- *)

let check_node (c : Compile.compiled) (cn : Compile.cnode) =
  if Packet_set.is_empty cn.universe then
    [
      Diagnostic.v ~device:cn.path ~code:"POL003" Diagnostic.Warning
        "scope compiles to the empty packet set under its ancestors — the subtree is \
         unreachable";
    ]
  else
    let ancestors =
      List.filter (fun a -> is_ancestor_of ~ancestor:a cn) c.Compile.nodes
    in
    let pol001 =
      List.concat_map
        (fun (cr : Compile.crule) ->
          match cr.rule.Poltree.action with
          | Poltree.Allow ->
              List.filter_map
                (fun (a : Compile.cnode) ->
                  let crushed = Packet_set.inter cr.effective a.invariant in
                  if Packet_set.is_empty crushed then None
                  else
                    Some
                      (Diagnostic.v ~device:cn.path ~obj:(rule_obj cr) ~code:"POL001"
                         Diagnostic.Error
                         (Printf.sprintf
                            "%s allows traffic ancestor %s unconditionally denies \
                             (deny!) — witness %s"
                            (Poltree.rule_to_string cr.rule)
                            a.path (witness crushed))))
                ancestors
          | _ -> [])
        cn.crules
    in
    let pol002 =
      List.filter_map
        (fun (cr : Compile.crule) ->
          if not (Packet_set.is_empty cr.effective) then None
          else
            let why =
              if Packet_set.is_empty cr.full then
                "selects no traffic inside the node's scope"
              else
                "is shadowed: earlier rules, descendants or earlier siblings already \
                 decide all its traffic"
            in
            Some
              (Diagnostic.v ~device:cn.path ~obj:(rule_obj cr) ~code:"POL002"
                 Diagnostic.Warning
                 (Printf.sprintf "%s %s" (Poltree.rule_to_string cr.rule) why)))
        cn.crules
    in
    pol001 @ pol002

(* ---------------- POL006: redundant subtree ---------------- *)

let rec remove_node name (n : Poltree.node) =
  {
    n with
    Poltree.children =
      List.filter_map
        (fun (ch : Poltree.node) ->
          if ch.name = name then None else Some (remove_node name ch))
        n.children;
  }

(* Packet sets other nodes' rules of [action-class] select — the only
   traffic that could re-decide a removed subtree's contributions. *)
let class_fulls pred (cn : Compile.cnode) =
  List.fold_left
    (fun acc (cr : Compile.crule) ->
      if pred cr.rule.Poltree.action then Packet_set.union acc cr.full else acc)
    Packet_set.empty cn.crules

(* Does any rule outside the subtree name a node inside it?  Removing a
   referenced subtree changes the meaning of those rules, so POL006
   never claims it redundant. *)
let seg_references_into ~(top : Compile.cnode) (c : Compile.compiled) =
  let inside =
    List.filter_map
      (fun cn -> if in_subtree ~top cn then Some cn.Compile.name else None)
      c.Compile.nodes
  in
  let refers (r : Poltree.rule) =
    let ep_refers = function Poltree.Seg s -> List.mem s inside | _ -> false in
    ep_refers r.src || (match r.dst with Some e -> ep_refers e | None -> false)
  in
  List.exists
    (fun (cn : Compile.cnode) ->
      (not (in_subtree ~top cn))
      && List.exists (fun (cr : Compile.crule) -> refers cr.rule) cn.crules)
    c.Compile.nodes

let requires_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (wa, sa) (wb, sb) -> wa = wb && Packet_set.equal sa sb)
       a b

let check_pol006 (c : Compile.compiled) (cn : Compile.cnode) =
  if cn.depth = 0 || Packet_set.is_empty cn.universe then []
  else if seg_references_into ~top:cn c then []
  else
    let subtree = List.filter (fun n -> in_subtree ~top:cn n) c.Compile.nodes in
    let contrib pred =
      List.fold_left
        (fun acc (n : Compile.cnode) ->
          List.fold_left
            (fun acc (cr : Compile.crule) ->
              if pred cr.rule.Poltree.action then Packet_set.union acc cr.effective
              else acc)
            acc n.crules)
        Packet_set.empty subtree
    in
    let is_allow = function Poltree.Allow -> true | _ -> false in
    let is_deny = function Poltree.Deny | Poltree.Deny_final -> true | _ -> false in
    let is_req = function Poltree.Require _ -> true | _ -> false in
    let contrib_allow = contrib is_allow
    and contrib_deny = contrib is_deny
    and contrib_req = contrib is_req in
    let trivially_redundant =
      Packet_set.is_empty contrib_allow
      && Packet_set.is_empty contrib_deny
      && Packet_set.is_empty contrib_req
    in
    let redundant =
      if trivially_redundant then true
      else
        (* Cheap necessary condition before the expensive recompile:
           some node outside the subtree must be able to re-decide every
           contribution — via an ancestor's own rules or an overlapping
           universe elsewhere. *)
        let outside =
          List.filter (fun n -> not (in_subtree ~top:cn n)) c.Compile.nodes
        in
        let ancestor_rules =
          List.filter (fun (a : Compile.cnode) -> is_ancestor_of ~ancestor:a cn) outside
        in
        let recover pred =
          List.fold_left
            (fun acc a -> Packet_set.union acc (class_fulls pred a))
            Packet_set.empty ancestor_rules
        in
        let overlap_elsewhere =
          List.exists
            (fun (o : Compile.cnode) ->
              (not (List.exists (fun (a : Compile.cnode) -> a.path = o.path) ancestor_rules))
              && not (Packet_set.is_empty (Packet_set.inter o.universe cn.universe)))
            outside
        in
        let candidate =
          overlap_elsewhere
          || (Packet_set.subset contrib_allow (recover is_allow)
             && Packet_set.subset contrib_deny (recover is_deny)
             && Packet_set.subset contrib_req (recover is_req))
        in
        candidate
        &&
        let tree = c.Compile.tree in
        let pruned =
          { tree with Poltree.root = remove_node cn.Compile.name tree.Poltree.root }
        in
        match Compile.compile pruned with
        | Error _ -> false
        | Ok c' ->
            Packet_set.equal c.Compile.permit c'.Compile.permit
            && Packet_set.equal c.Compile.decided c'.Compile.decided
            && requires_equal c.Compile.requires c'.Compile.requires
    in
    if redundant then
      [
        Diagnostic.v ~device:cn.path ~code:"POL006" Diagnostic.Warning
          "redundant subtree: removing it leaves the compiled permit, deny and \
           require sets unchanged";
      ]
    else []

(* ---------------- POL004: refinement vs the flat spec -------------- *)

let leaf_of_flow (c : Compile.compiled) flow =
  List.find_opt
    (fun (l : Compile.leaf) -> Packet_set.mem l.leaf_universe flow)
    c.Compile.leaves

let check_policy (c : Compile.compiled) (p : Policy.t) =
  let device =
    match leaf_of_flow c p.flow with
    | Some l -> l.leaf_path
    | None -> (match c.Compile.nodes with cn :: _ -> cn.path | [] -> "root")
  in
  let d sev msg = [ Diagnostic.v ~device ~obj:p.id ~code:"POL004" sev msg ] in
  let flow = Flow.to_string p.flow in
  match (Compile.verdict c p.flow, p.intent) with
  | Compile.Permit _, Policy.Reachable -> []
  | Compile.Permit ws, Policy.Waypoint w ->
      if List.mem w ws then []
      else
        d Diagnostic.Warning
          (Printf.sprintf
             "tree permits %s but does not require waypoint %s the flat spec demands"
             flow w)
  | Compile.Permit _, Policy.Isolated ->
      d Diagnostic.Error
        (Printf.sprintf
           "refinement violation: flat spec isolates %s but the tree permits it — \
            witness %s"
           p.id flow)
  | Compile.Deny_explicit, Policy.Isolated -> []
  | Compile.Deny_default, Policy.Isolated ->
      d Diagnostic.Warning
        (Printf.sprintf
           "tree never decides %s: isolation holds only by the implicit default deny"
           flow)
  | Compile.Deny_explicit, (Policy.Reachable | Policy.Waypoint _) ->
      d Diagnostic.Error
        (Printf.sprintf
           "refinement violation: flat spec expects %s deliverable but the tree \
            explicitly denies it — witness %s"
           p.id flow)
  | Compile.Deny_default, (Policy.Reachable | Policy.Waypoint _) ->
      d Diagnostic.Error
        (Printf.sprintf
           "refinement violation: flat spec expects %s deliverable but the tree never \
            decides it (default deny) — witness %s"
           p.id flow)

let check_leaf_coverage policies (l : Compile.leaf) =
  if Packet_set.is_empty l.leaf_permit then []
  else if
    List.exists (fun (p : Policy.t) -> Packet_set.mem l.leaf_universe p.flow) policies
  then []
  else
    [
      Diagnostic.v ~device:l.leaf_path ~code:"POL004" Diagnostic.Info
        (Printf.sprintf
           "tree permits traffic in this leaf scope but no flat policy probes it — \
            witness %s"
           (witness l.leaf_permit));
    ]

(* ---------------- POL005: ticket delta vs scope ownership ----------- *)

let spec_writes_on spec node =
  List.exists
    (fun action -> Privilege.allows spec (Privilege.request action node))
    Action.mutating

let check_ticket (c : Compile.compiled) ?network (t : Plan_lint.ticket) =
  let script = Heimdall_sem.Plan_sem.script_of_commands t.commands in
  let analysis =
    Heimdall_sem.Plan_sem.analyze ?network script.Heimdall_sem.Plan_sem.script_changes
  in
  let delta = analysis.Heimdall_sem.Plan_sem.delta in
  (* A conservative [full] delta means the static analysis could not
     localise the plan's effect at all — intersecting it with every
     scope would flag every leaf, which is noise, not signal.  Only
     informative (bounded) deltas are cross-checked. *)
  if Packet_set.is_empty delta || Packet_set.equal delta Packet_set.full then []
  else
    List.filter_map
      (fun (cn : Compile.cnode) ->
        if (not cn.is_leaf) || cn.owners = [] then None
        else
          let affected = Packet_set.inter delta cn.universe in
          if Packet_set.is_empty affected then None
          else if List.exists (spec_writes_on t.spec) cn.owners then None
          else
            Some
              (Diagnostic.v ~device:cn.path ~obj:t.label ~code:"POL005"
                 Diagnostic.Warning
                 (Printf.sprintf
                    "plan delta can flip tree verdicts in this scope (witness %s) but \
                     the ticket's privilege grants no write on its owners (%s)"
                    (witness affected)
                    (String.concat ", " cn.owners))))
      c.Compile.nodes

(* ---------------- entry point ---------------- *)

let fan ?engine ~phase f items =
  match engine with
  | None -> List.concat_map f items
  | Some e ->
      Engine.phase e phase (fun () ->
          List.concat (Engine.map ~min_per_domain:1 e f items))

let check ?engine ?obs ?(policies = []) ?(tickets = []) ?network c =
  let obs = match obs with Some _ -> obs | None -> Option.bind engine Engine.obs in
  Heimdall_obs.Obs.span obs "poltree.check" (fun () ->
      let structural =
        fan ?engine ~phase:"poltree/nodes"
          (fun cn -> check_node c cn @ check_pol006 c cn)
          c.Compile.nodes
      in
      let refinement =
        fan ?engine ~phase:"poltree/policies" (fun p -> check_policy c p) policies
      in
      let coverage =
        if policies = [] then []
        else List.concat_map (check_leaf_coverage policies) c.Compile.leaves
      in
      let privilege =
        fan ?engine ~phase:"poltree/tickets" (fun t -> check_ticket c ?network t) tickets
      in
      let findings =
        List.sort Diagnostic.compare (structural @ refinement @ coverage @ privilege)
      in
      Heimdall_obs.Obs.add_attr obs "nodes" (string_of_int (List.length c.Compile.nodes));
      Heimdall_obs.Obs.add_attr obs "findings" (string_of_int (List.length findings));
      Heimdall_obs.Obs.incr obs ~by:(List.length findings) "lint.findings";
      findings)

(* ---------------- seeded defects ---------------- *)

let first_descendant_allow (t : Poltree.t) =
  let rec find (n : Poltree.node) =
    match
      List.find_opt
        (fun (r : Poltree.rule) -> r.action = Poltree.Allow)
        n.Poltree.rules
    with
    | Some r -> Some (n, r)
    | None -> List.find_map find n.children
  in
  List.find_map find t.root.Poltree.children

let seed_pol001 (t : Poltree.t) =
  match first_descendant_allow t with
  | None -> Error "tree has no descendant allow rule to contradict"
  | Some (n, r) ->
      let dst =
        match r.dst with Some d -> Some d | None -> Some (Poltree.Nets n.scope)
      in
      let invariant =
        { r with Poltree.action = Poltree.Deny_final; dst }
      in
      Ok
        {
          t with
          Poltree.root =
            { t.root with Poltree.rules = t.root.rules @ [ invariant ] };
        }

let seed_pol004 (t : Poltree.t) =
  match first_descendant_allow t with
  | None -> Error "tree has no descendant allow rule to flip"
  | Some (target_node, target_rule) ->
      let flipped = ref false in
      let rec rewrite (n : Poltree.node) =
        let rules =
          List.map
            (fun (r : Poltree.rule) ->
              if (not !flipped) && n.name = target_node.Poltree.name && r = target_rule
              then (
                flipped := true;
                { r with Poltree.action = Poltree.Deny })
              else r)
            n.Poltree.rules
        in
        { n with Poltree.rules; children = List.map rewrite n.children }
      in
      let root = rewrite t.root in
      if !flipped then Ok { t with Poltree.root = root }
      else Error "could not locate the allow rule to flip"

(* Two /17 permits whose union exactly covers a later /16 deny: no
   pairwise check can see the dead rule, only the packet-set algebra. *)
let seed_acl004 net =
  let open Heimdall_control in
  let victim =
    List.find_map
      (fun (node, (cfg : Heimdall_config.Ast.t)) ->
        match cfg.acls with a :: _ -> Some (node, cfg, a) | [] -> None)
      (Network.configs net)
  in
  match victim with
  | None -> Error "needs a network with at least one ACL"
  | Some (node, cfg, acl) ->
      let rule seq action src =
        Acl.rule ~seq ~proto:(Acl.Proto Flow.Tcp) action (Prefix.of_string src) Prefix.any
      in
      let acl =
        acl
        |> Acl.add_rule (rule 1 Acl.Permit "10.250.0.0/17")
        |> Acl.add_rule (rule 2 Acl.Permit "10.250.128.0/17")
        |> Acl.add_rule (rule 3 Acl.Deny "10.250.0.0/16")
      in
      let net = Network.with_config node (Heimdall_config.Ast.update_acl acl cfg) net in
      Ok (net, node, acl.name)
