open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_verify

type seg = {
  seg_prefix : Prefix.t;
  seg_group : string;
  seg_owners : string list;
}

(* Deterministic node name for a segment, e.g. "net-10.3.10.0-24". *)
let leaf_name p =
  "net-" ^ String.map (fun c -> if c = '/' then '-' else c) (Prefix.to_string p)

(* The OSPF area a subnet belongs to, read off its owning device's
   config: the interface's explicit area if set, else the area of the
   [network] statement covering it, else 0. *)
let area_of net dev subnet =
  match Network.config dev net with
  | None -> 0
  | Some (cfg : Ast.t) ->
      let iface_area =
        List.find_map
          (fun (i : Ast.interface) ->
            match i.addr with
            | Some a when Prefix.equal (Ifaddr.subnet a) subnet -> i.ospf_area
            | _ -> None)
          cfg.interfaces
      in
      (match iface_area with
      | Some a -> a
      | None -> (
          match cfg.ospf with
          | None -> 0
          | Some o -> (
              match
                List.find_opt (fun (p, _) -> Prefix.subsumes p subnet) o.networks
              with
              | Some (_, a) -> a
              | None -> 0)))

let segs_of_network net =
  Spec_miner.host_subnets net
  |> List.map (fun (subnet, _hosts) ->
         let owner = Network.owner_of_address (Prefix.host subnet 1) net in
         let seg_owners = match owner with Some (dev, _) -> [ dev ] | None -> [] in
         let seg_group =
           match owner with
           | Some (dev, _) -> Printf.sprintf "area-%d" (area_of net dev subnet)
           | None -> "area-0"
         in
         { seg_prefix = subnet; seg_group; seg_owners })

(* ---------------- clustering ---------------- *)

let service_of_flow (f : Flow.t) : string * Poltree.service =
  match f.proto with
  | Flow.Icmp -> ("ping", [ { Poltree.protos = [ Flow.Icmp ]; dp_lo = 0; dp_hi = Packet_set.max_port } ])
  | Flow.Tcp ->
      ( Printf.sprintf "tcp-%d" f.dst_port,
        [ { Poltree.protos = [ Flow.Tcp ]; dp_lo = f.dst_port; dp_hi = f.dst_port } ] )
  | Flow.Udp ->
      ( Printf.sprintf "udp-%d" f.dst_port,
        [ { Poltree.protos = [ Flow.Udp ]; dp_lo = f.dst_port; dp_hi = f.dst_port } ] )

let find_seg segs addr =
  (* Longest-prefix match so nested segments resolve to the tightest. *)
  List.fold_left
    (fun best s ->
      if Prefix.contains s.seg_prefix addr then
        match best with
        | Some b when Prefix.length b.seg_prefix >= Prefix.length s.seg_prefix -> best
        | _ -> Some s
      else best)
    None segs

(* Sort key: denies bind tightest, then requires, then allows; ties by
   service then source, so mined trees render identically across runs. *)
let action_rank = function
  | Poltree.Deny_final -> 0
  | Poltree.Deny -> 1
  | Poltree.Require _ -> 2
  | Poltree.Allow -> 3

let ep_key = function
  | Poltree.Any -> "0:any"
  | Poltree.Seg s -> "1:" ^ s
  | Poltree.Nets l -> "2:" ^ String.concat "," (List.map Prefix.to_string l)

let rule_key (r : Poltree.rule) =
  ( action_rank r.action,
    (match r.action with Poltree.Require w -> w | _ -> ""),
    (match r.service with Poltree.Named n -> n | Poltree.Inline _ -> "~inline"),
    ep_key r.src,
    match r.dst with None -> "" | Some e -> ep_key e )

let sort_rules rules = List.sort_uniq (fun a b -> compare (rule_key a) (rule_key b)) rules

let of_policies ~segs policies =
  let services = ref [] in
  let register_service (f : Flow.t) =
    let name, svc = service_of_flow f in
    if not (List.mem_assoc name !services) then services := (name, svc) :: !services;
    name
  in
  let src_ep (f : Flow.t) =
    match find_seg segs f.src with
    | Some s -> Poltree.Seg (leaf_name s.seg_prefix)
    | None -> Poltree.Nets [ Prefix.host_prefix f.src ]
  in
  (* Rules per destination leaf, plus root rules for destinations in no
     segment. *)
  let leaf_rules : (string, Poltree.rule list ref) Hashtbl.t = Hashtbl.create 64 in
  let root_rules = ref [] in
  let add_rule dst_seg (r : Poltree.rule) =
    match dst_seg with
    | Some s ->
        let key = leaf_name s.seg_prefix in
        let cell =
          match Hashtbl.find_opt leaf_rules key with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.add leaf_rules key c;
              c
        in
        cell := r :: !cell
    | None -> root_rules := r :: !root_rules
  in
  List.iter
    (fun (p : Policy.t) ->
      let svc = Poltree.Named (register_service p.flow) in
      let src = src_ep p.flow in
      let dst_seg = find_seg segs p.flow.dst in
      let dst =
        match dst_seg with
        | Some _ -> None
        | None -> Some (Poltree.Nets [ Prefix.host_prefix p.flow.dst ])
      in
      match p.intent with
      | Policy.Reachable -> add_rule dst_seg { Poltree.action = Poltree.Allow; service = svc; src; dst }
      | Policy.Isolated -> add_rule dst_seg { Poltree.action = Poltree.Deny; service = svc; src; dst }
      | Policy.Waypoint w ->
          add_rule dst_seg { Poltree.action = Poltree.Require w; service = svc; src; dst };
          add_rule dst_seg { Poltree.action = Poltree.Allow; service = svc; src; dst })
    policies;
  let leaves =
    List.map
      (fun s ->
        let name = leaf_name s.seg_prefix in
        let rules =
          match Hashtbl.find_opt leaf_rules name with
          | Some c -> sort_rules !c
          | None -> []
        in
        (s, Poltree.node ~owners:s.seg_owners ~rules ~scope:[ s.seg_prefix ] name))
      segs
  in
  let groups =
    List.sort_uniq String.compare (List.map (fun s -> s.seg_group) segs)
  in
  let group_nodes =
    List.map
      (fun g ->
        let members = List.filter (fun (s, _) -> s.seg_group = g) leaves in
        let children = List.map snd members in
        let scope = List.map (fun (s, _) -> s.seg_prefix) members in
        (* Hoist rules shared by every child (destination defaulting to
           the child's own scope) up to the group node — the clustering
           that makes inheritance visible. *)
        let shared =
          match children with
          | [] | [ _ ] -> []
          | first :: rest ->
              List.filter
                (fun (r : Poltree.rule) ->
                  r.dst = None
                  && List.for_all
                       (fun (c : Poltree.node) -> List.mem r c.Poltree.rules)
                       rest)
                first.Poltree.rules
        in
        let children =
          if shared = [] then children
          else
            List.map
              (fun (c : Poltree.node) ->
                { c with
                  Poltree.rules =
                    List.filter (fun r -> not (List.mem r shared)) c.Poltree.rules })
              children
        in
        Poltree.node ~rules:(sort_rules shared) ~children ~scope g)
      groups
  in
  {
    Poltree.services = List.sort (fun (a, _) (b, _) -> String.compare a b) !services;
    root = Poltree.make_root ~rules:(sort_rules !root_rules) group_nodes;
  }

let mine ?options dp =
  let net = Dataplane.network dp in
  of_policies ~segs:(segs_of_network net) (Spec_miner.mine ?options dp)
