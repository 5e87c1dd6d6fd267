open Heimdall_net

type protocol = Connected | Static | Ospf | Bgp

let protocol_to_string = function
  | Connected -> "connected"
  | Static -> "static"
  | Ospf -> "ospf"
  | Bgp -> "bgp"

let admin_distance = function Connected -> 0 | Static -> 1 | Bgp -> 20 | Ospf -> 110

type route = {
  prefix : Prefix.t;
  next_hop : Ipv4.t option;
  out_iface : string;
  protocol : protocol;
  distance : int;
  metric : int;
}

let route_to_string r =
  Printf.sprintf "%s via %s dev %s [%s %d/%d]" (Prefix.to_string r.prefix)
    (match r.next_hop with Some nh -> Ipv4.to_string nh | None -> "direct")
    r.out_iface
    (protocol_to_string r.protocol)
    r.distance r.metric

type t = route Prefix_trie.t

let empty = Prefix_trie.empty

let better a b =
  (* true iff [a] should be preferred over [b]. *)
  if a.distance <> b.distance then a.distance < b.distance
  else if a.metric <> b.metric then a.metric < b.metric
  else
    (* Deterministic tiebreak so dataplanes are reproducible. *)
    Stdlib.compare
      (a.out_iface, Option.map Ipv4.to_int a.next_hop)
      (b.out_iface, Option.map Ipv4.to_int b.next_hop)
    < 0

let of_candidates routes =
  List.fold_left
    (fun t r ->
      match Prefix_trie.find_exact r.prefix t with
      | Some current when not (better r current) -> t
      | _ -> Prefix_trie.add r.prefix r t)
    empty routes

let lookup addr t = Option.map snd (Prefix_trie.lookup addr t)
let routes t = List.map snd (Prefix_trie.bindings t)
let route_count t = Prefix_trie.cardinal t

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter (fun r -> Format.fprintf fmt "%s@," (route_to_string r)) (routes t);
  Format.fprintf fmt "@]"
