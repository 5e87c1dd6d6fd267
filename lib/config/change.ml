open Heimdall_net

type op =
  | Set_interface_enabled of { iface : string; enabled : bool }
  | Set_interface_addr of { iface : string; addr : Ifaddr.t option }
  | Set_interface_description of { iface : string; description : string option }
  | Set_ospf_cost of { iface : string; cost : int option }
  | Set_ospf_area of { iface : string; area : int option }
  | Set_switchport of { iface : string; switchport : Ast.switchport option }
  | Set_acl_binding of { iface : string; dir : [ `In | `Out ]; acl : string option }
  | Acl_set_rule of { acl : string; rule : Acl.rule }
  | Acl_remove_rule of { acl : string; seq : int }
  | Acl_remove of { acl : string }
  | Add_static_route of Ast.static_route
  | Remove_static_route of { prefix : Prefix.t; next_hop : Ipv4.t }
  | Set_default_gateway of Ipv4.t option
  | Ospf_set_network of { prefix : Prefix.t; area : int }
  | Ospf_remove_network of { prefix : Prefix.t }
  | Set_vlan_name of { vlan : int; name : string option }
  | Set_secret of Ast.secret

type t = { node : string; op : op }

let v node op = { node; op }

let with_interface cfg iface f =
  match Ast.find_interface iface cfg with
  | None -> Error (Printf.sprintf "%s: no such interface %s" cfg.Ast.hostname iface)
  | Some i -> Ok (Ast.update_interface (f i) cfg)

let with_or_new_acl cfg name f =
  let acl = Option.value (Ast.find_acl name cfg) ~default:(Acl.empty name) in
  Ok (Ast.update_acl (f acl) cfg)

let apply op (cfg : Ast.t) =
  match op with
  | Set_interface_enabled { iface; enabled } ->
      with_interface cfg iface (fun i -> { i with enabled })
  | Set_interface_addr { iface; addr } -> with_interface cfg iface (fun i -> { i with addr })
  | Set_interface_description { iface; description } ->
      with_interface cfg iface (fun i -> { i with description })
  | Set_ospf_cost { iface; cost } ->
      with_interface cfg iface (fun i -> { i with ospf_cost = cost })
  | Set_ospf_area { iface; area } ->
      with_interface cfg iface (fun i -> { i with ospf_area = area })
  | Set_switchport { iface; switchport } ->
      with_interface cfg iface (fun i -> { i with switchport })
  | Set_acl_binding { iface; dir; acl } ->
      with_interface cfg iface (fun i ->
          match dir with `In -> { i with acl_in = acl } | `Out -> { i with acl_out = acl })
  | Acl_set_rule { acl; rule } -> with_or_new_acl cfg acl (fun a -> Acl.add_rule rule a)
  | Acl_remove_rule { acl; seq } -> (
      match Ast.find_acl acl cfg with
      | None -> Error (Printf.sprintf "%s: no such access-list %s" cfg.hostname acl)
      | Some a ->
          if Acl.find_rule seq a = None then
            Error (Printf.sprintf "%s: access-list %s has no rule %d" cfg.hostname acl seq)
          else
            (* Removing the last rule drops the list entirely: an empty
               ACL and a missing one are dataplane-equivalent (a binding
               to either fails closed), and [diff] has no way to express
               "create an empty ACL" — keeping ops closed over the
               no-empty-ACL invariant makes the diff/apply round trip
               exact. *)
            let a' = Acl.remove_rule seq a in
            if a'.Acl.rules = [] then Ok (Ast.remove_acl acl cfg)
            else Ok (Ast.update_acl a' cfg))
  | Acl_remove { acl } ->
      if Ast.find_acl acl cfg = None then
        Error (Printf.sprintf "%s: no such access-list %s" cfg.hostname acl)
      else Ok (Ast.remove_acl acl cfg)
  | Add_static_route r ->
      let same (r' : Ast.static_route) =
        Prefix.equal r'.sr_prefix r.sr_prefix && Ipv4.equal r'.sr_next_hop r.sr_next_hop
      in
      let others = List.filter (fun r' -> not (same r')) cfg.static_routes in
      Ok (Ast.normalize { cfg with static_routes = r :: others })
  | Remove_static_route { prefix; next_hop } ->
      let matches (r : Ast.static_route) =
        Prefix.equal r.sr_prefix prefix && Ipv4.equal r.sr_next_hop next_hop
      in
      if not (List.exists matches cfg.static_routes) then
        Error
          (Printf.sprintf "%s: no static route %s via %s" cfg.hostname
             (Prefix.to_string prefix) (Ipv4.to_string next_hop))
      else
        Ok { cfg with static_routes = List.filter (fun r -> not (matches r)) cfg.static_routes }
  | Set_default_gateway gw -> Ok { cfg with default_gateway = gw }
  | Ospf_set_network { prefix; area } ->
      let o =
        Option.value cfg.ospf
          ~default:{ Ast.router_id = None; networks = []; default_originate = false }
      in
      let others = List.filter (fun (p, _) -> not (Prefix.equal p prefix)) o.networks in
      Ok { cfg with ospf = Some { o with networks = others @ [ (prefix, area) ] } }
  | Ospf_remove_network { prefix } -> (
      match cfg.ospf with
      | None -> Error (Printf.sprintf "%s: no ospf process" cfg.hostname)
      | Some o ->
          if not (List.exists (fun (p, _) -> Prefix.equal p prefix) o.networks) then
            Error
              (Printf.sprintf "%s: ospf has no network %s" cfg.hostname
                 (Prefix.to_string prefix))
          else
            let networks =
              List.filter (fun (p, _) -> not (Prefix.equal p prefix)) o.networks
            in
            Ok { cfg with ospf = Some { o with networks } })
  | Set_vlan_name { vlan; name } -> (
      let others = List.filter (fun (id, _) -> id <> vlan) cfg.vlans in
      match name with
      | None ->
          if not (List.mem_assoc vlan cfg.vlans) then
            Error (Printf.sprintf "%s: no vlan %d" cfg.hostname vlan)
          else Ok (Ast.normalize { cfg with vlans = others })
      | Some name -> Ok (Ast.normalize { cfg with vlans = (vlan, name) :: others }))
  | Set_secret s ->
      let same_slot (s' : Ast.secret) =
        match (s, s') with
        | Ast.Enable_secret _, Ast.Enable_secret _ -> true
        | Ast.Snmp_community _, Ast.Snmp_community _ -> true
        | Ast.Ipsec_key (_, p), Ast.Ipsec_key (_, p') -> Ipv4.equal p p'
        | Ast.User_password (u, _), Ast.User_password (u', _) -> u = u'
        | ( ( Ast.Enable_secret _ | Ast.Snmp_community _ | Ast.Ipsec_key _
            | Ast.User_password _ ),
            _ ) ->
            false
      in
      let others = List.filter (fun s' -> not (same_slot s')) cfg.secrets in
      Ok { cfg with secrets = others @ [ s ] }

let apply_all changes lookup =
  let module Smap = Map.Make (String) in
  let rec go acc = function
    | [] -> Ok (Smap.bindings acc)
    | { node; op } :: rest -> (
        let current =
          match Smap.find_opt node acc with
          | Some c -> Some c
          | None -> lookup node
        in
        match current with
        | None -> Error (Printf.sprintf "unknown node %s" node)
        | Some cfg -> (
            match apply op cfg with
            | Error _ as e -> e
            | Ok cfg' -> go (Smap.add node cfg' acc) rest))
  in
  go Smap.empty changes

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let diff_interface (before : Ast.interface) (after : Ast.interface) =
  let iface = after.if_name in
  let changed get op = if get before <> get after then [ op ] else [] in
  changed (fun i -> i.Ast.enabled) (Set_interface_enabled { iface; enabled = after.enabled })
  @ changed (fun i -> i.Ast.addr) (Set_interface_addr { iface; addr = after.addr })
  @ changed
      (fun i -> i.Ast.description)
      (Set_interface_description { iface; description = after.description })
  @ changed (fun i -> i.Ast.ospf_cost) (Set_ospf_cost { iface; cost = after.ospf_cost })
  @ changed (fun i -> i.Ast.ospf_area) (Set_ospf_area { iface; area = after.ospf_area })
  @ changed
      (fun i -> i.Ast.switchport)
      (Set_switchport { iface; switchport = after.switchport })
  @ changed
      (fun i -> i.Ast.acl_in)
      (Set_acl_binding { iface; dir = `In; acl = after.acl_in })
  @ changed
      (fun i -> i.Ast.acl_out)
      (Set_acl_binding { iface; dir = `Out; acl = after.acl_out })

let diff_acl (before : Acl.t) (after : Acl.t) =
  let removed =
    List.filter_map
      (fun (r : Acl.rule) ->
        if Acl.find_rule r.seq after = None then
          Some (Acl_remove_rule { acl = before.name; seq = r.seq })
        else None)
      before.rules
  in
  let set =
    List.filter_map
      (fun (r : Acl.rule) ->
        match Acl.find_rule r.seq before with
        | Some r' when r' = r -> None
        | _ -> Some (Acl_set_rule { acl = after.name; rule = r }))
      after.rules
  in
  removed @ set

let diff ~node (before : Ast.t) (after : Ast.t) =
  let before = Ast.normalize before and after = Ast.normalize after in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  (* Interfaces: the model has a fixed port inventory, so we only diff
     matching names; an interface present on one side only is a hardware
     change and out of scope for config diffs. *)
  List.iter
    (fun (ia : Ast.interface) ->
      match Ast.find_interface ia.if_name before with
      | Some ib -> List.iter emit (diff_interface ib ia)
      | None -> ())
    after.interfaces;
  (* VLANs *)
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id after.vlans) then emit (Set_vlan_name { vlan = id; name = None }))
    before.vlans;
  List.iter
    (fun (id, name) ->
      match List.assoc_opt id before.vlans with
      | Some n when n = name -> ()
      | _ -> emit (Set_vlan_name { vlan = id; name = Some name }))
    after.vlans;
  (* ACLs *)
  List.iter
    (fun (a : Acl.t) ->
      match Ast.find_acl a.name after with
      | None -> emit (Acl_remove { acl = a.name })
      | Some _ -> ())
    before.acls;
  List.iter
    (fun (a : Acl.t) ->
      let b = Option.value (Ast.find_acl a.name before) ~default:(Acl.empty a.name) in
      List.iter emit (diff_acl b a))
    after.acls;
  (* Static routes *)
  let route_key (r : Ast.static_route) = (r.sr_prefix, r.sr_next_hop) in
  List.iter
    (fun (r : Ast.static_route) ->
      if not (List.exists (fun r' -> route_key r' = route_key r) after.static_routes) then
        emit (Remove_static_route { prefix = r.sr_prefix; next_hop = r.sr_next_hop }))
    before.static_routes;
  List.iter
    (fun (r : Ast.static_route) ->
      if not (List.mem r before.static_routes) then emit (Add_static_route r))
    after.static_routes;
  (* Default gateway *)
  if before.default_gateway <> after.default_gateway then
    emit (Set_default_gateway after.default_gateway);
  (* OSPF process *)
  let before_nets = match before.ospf with Some o -> o.networks | None -> [] in
  let after_nets = match after.ospf with Some o -> o.networks | None -> [] in
  List.iter
    (fun (p, _) ->
      if not (List.exists (fun (p', _) -> Prefix.equal p p') after_nets) then
        emit (Ospf_remove_network { prefix = p }))
    before_nets;
  List.iter
    (fun (p, area) ->
      match List.find_opt (fun (p', _) -> Prefix.equal p p') before_nets with
      | Some (_, a) when a = area -> ()
      | _ -> emit (Ospf_set_network { prefix = p; area }))
    after_nets;
  (* Secrets *)
  List.iter
    (fun s -> if not (List.mem s before.secrets) then emit (Set_secret s))
    after.secrets;
  List.rev_map (fun op -> { node; op }) !ops |> List.rev

(* ------------------------------------------------------------------ *)
(* Rendering and classification                                        *)
(* ------------------------------------------------------------------ *)

let opt_to_string f = function None -> "none" | Some x -> f x

let op_to_string = function
  | Set_interface_enabled { iface; enabled } ->
      Printf.sprintf "interface %s %s" iface (if enabled then "no shutdown" else "shutdown")
  | Set_interface_addr { iface; addr } ->
      Printf.sprintf "interface %s ip address %s" iface (opt_to_string Ifaddr.to_string addr)
  | Set_interface_description { iface; description } ->
      Printf.sprintf "interface %s description %s" iface
        (opt_to_string (fun d -> d) description)
  | Set_ospf_cost { iface; cost } ->
      Printf.sprintf "interface %s ospf cost %s" iface (opt_to_string string_of_int cost)
  | Set_ospf_area { iface; area } ->
      Printf.sprintf "interface %s ospf area %s" iface (opt_to_string string_of_int area)
  | Set_switchport { iface; switchport } ->
      let sp =
        match switchport with
        | None -> "none"
        | Some (Ast.Access v) -> Printf.sprintf "access vlan %d" v
        | Some (Ast.Trunk vs) ->
            Printf.sprintf "trunk allowed vlan %s"
              (String.concat "," (List.map string_of_int vs))
      in
      Printf.sprintf "interface %s switchport %s" iface sp
  | Set_acl_binding { iface; dir; acl } ->
      Printf.sprintf "interface %s access-group %s %s" iface
        (opt_to_string (fun a -> a) acl)
        (match dir with `In -> "in" | `Out -> "out")
  | Acl_set_rule { acl; rule } ->
      Printf.sprintf "acl %s set rule %s" acl (Acl.rule_to_string rule)
  | Acl_remove_rule { acl; seq } -> Printf.sprintf "acl %s remove rule %d" acl seq
  | Acl_remove { acl } -> Printf.sprintf "acl %s remove" acl
  | Add_static_route r ->
      Printf.sprintf "ip route add %s via %s" (Prefix.to_string r.sr_prefix)
        (Ipv4.to_string r.sr_next_hop)
  | Remove_static_route { prefix; next_hop } ->
      Printf.sprintf "ip route remove %s via %s" (Prefix.to_string prefix)
        (Ipv4.to_string next_hop)
  | Set_default_gateway gw ->
      Printf.sprintf "ip default-gateway %s" (opt_to_string Ipv4.to_string gw)
  | Ospf_set_network { prefix; area } ->
      Printf.sprintf "ospf network %s area %d" (Prefix.to_string prefix) area
  | Ospf_remove_network { prefix } ->
      Printf.sprintf "ospf no network %s" (Prefix.to_string prefix)
  | Set_vlan_name { vlan; name } ->
      Printf.sprintf "vlan %d name %s" vlan (opt_to_string (fun n -> n) name)
  | Set_secret s -> Printf.sprintf "set %s" (Ast.secret_kind s)

let to_string t = Printf.sprintf "%s: %s" t.node (op_to_string t.op)

let op_action_name = function
  | Set_interface_enabled { enabled; _ } ->
      if enabled then "interface.up" else "interface.shutdown"
  | Set_interface_addr _ -> "interface.addr"
  | Set_interface_description _ -> "interface.description"
  | Set_ospf_cost _ -> "ospf.cost"
  | Set_ospf_area _ -> "ospf.area"
  | Set_switchport _ -> "vlan.switchport"
  | Set_acl_binding _ -> "acl.bind"
  | Acl_set_rule _ -> "acl.rule"
  | Acl_remove_rule _ -> "acl.rule"
  | Acl_remove _ -> "acl.remove"
  | Add_static_route _ -> "route.static"
  | Remove_static_route _ -> "route.static"
  | Set_default_gateway _ -> "route.gateway"
  | Ospf_set_network _ -> "ospf.network"
  | Ospf_remove_network _ -> "ospf.network"
  | Set_vlan_name _ -> "vlan.define"
  | Set_secret _ -> "secret.set"

let target_iface = function
  | Set_interface_enabled { iface; _ }
  | Set_interface_addr { iface; _ }
  | Set_interface_description { iface; _ }
  | Set_ospf_cost { iface; _ }
  | Set_ospf_area { iface; _ }
  | Set_switchport { iface; _ }
  | Set_acl_binding { iface; _ } ->
      Some iface
  | Acl_set_rule _ | Acl_remove_rule _ | Acl_remove _ | Add_static_route _
  | Remove_static_route _ | Set_default_gateway _ | Ospf_set_network _
  | Ospf_remove_network _ | Set_vlan_name _ | Set_secret _ ->
      None
