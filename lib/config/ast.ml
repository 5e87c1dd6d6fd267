open Heimdall_net

type switchport = Access of int | Trunk of int list

type interface = {
  if_name : string;
  description : string option;
  addr : Ifaddr.t option;
  ospf_cost : int option;
  ospf_area : int option;
  acl_in : string option;
  acl_out : string option;
  switchport : switchport option;
  enabled : bool;
}

let interface ?description ?addr ?ospf_cost ?ospf_area ?acl_in ?acl_out ?switchport
    ?(enabled = true) if_name =
  { if_name; description; addr; ospf_cost; ospf_area; acl_in; acl_out; switchport; enabled }

type static_route = { sr_prefix : Prefix.t; sr_next_hop : Ipv4.t; sr_distance : int }

type ospf = {
  router_id : Ipv4.t option;
  networks : (Prefix.t * int) list;
  default_originate : bool;
}

type bgp_neighbor = { peer : Ipv4.t; remote_as : int }
type bgp = { local_as : int; bgp_neighbors : bgp_neighbor list; advertised : Prefix.t list }

type secret =
  | Enable_secret of string
  | Snmp_community of string
  | Ipsec_key of string * Ipv4.t
  | User_password of string * string

let secret_value = function
  | Enable_secret s -> s
  | Snmp_community s -> s
  | Ipsec_key (s, _) -> s
  | User_password (_, p) -> p

let secret_kind = function
  | Enable_secret _ -> "enable-secret"
  | Snmp_community _ -> "snmp-community"
  | Ipsec_key _ -> "ipsec-key"
  | User_password _ -> "user-password"

type t = {
  hostname : string;
  interfaces : interface list;
  vlans : (int * string) list;
  acls : Acl.t list;
  static_routes : static_route list;
  ospf : ospf option;
  bgp : bgp option;
  default_gateway : Ipv4.t option;
  secrets : secret list;
}

let compare_static a b =
  match Prefix.compare a.sr_prefix b.sr_prefix with
  | 0 -> Ipv4.compare a.sr_next_hop b.sr_next_hop
  | c -> c

(* Secrets have no semantic order; sorting them makes two configs that
   hold the same credentials structurally equal regardless of the order
   [Set_secret] edits replaced slots in. *)
let compare_secret (a : secret) (b : secret) = compare a b

let normalize t =
  let ospf =
    match t.ospf with
    | Some o -> (
        let networks =
          List.sort (fun (p, _) (p', _) -> Prefix.compare p p') o.networks
        in
        (* [Ospf_remove_network] on the last statement leaves an empty
           default process behind; collapse it back to "no ospf" — the
           inverse of what [Ospf_set_network] creates on demand — so the
           round trip through diff/apply is structural, not just
           behavioural. *)
        match networks with
        | [] when o.router_id = None && not o.default_originate -> None
        | _ -> Some { o with networks })
    | None -> None
  in
  {
    t with
    interfaces = List.sort (fun a b -> String.compare a.if_name b.if_name) t.interfaces;
    vlans = List.sort (fun (a, _) (b, _) -> Int.compare a b) t.vlans;
    acls = List.sort (fun (a : Acl.t) (b : Acl.t) -> String.compare a.name b.name) t.acls;
    static_routes = List.sort compare_static t.static_routes;
    ospf;
    secrets = List.sort compare_secret t.secrets;
  }

let make ?(interfaces = []) ?(vlans = []) ?(acls = []) ?(static_routes = []) ?ospf ?bgp
    ?default_gateway ?(secrets = []) hostname =
  normalize
    { hostname; interfaces; vlans; acls; static_routes; ospf; bgp; default_gateway; secrets }

let equal a b = normalize a = normalize b
let find_interface name t = List.find_opt (fun i -> i.if_name = name) t.interfaces

let update_interface i t =
  let others = List.filter (fun i' -> i'.if_name <> i.if_name) t.interfaces in
  normalize { t with interfaces = i :: others }

let find_acl name t = List.find_opt (fun (a : Acl.t) -> a.name = name) t.acls

let update_acl (acl : Acl.t) t =
  let others = List.filter (fun (a : Acl.t) -> a.name <> acl.name) t.acls in
  normalize { t with acls = acl :: others }

let remove_acl name t =
  { t with acls = List.filter (fun (a : Acl.t) -> a.name <> name) t.acls }

let interface_addr t name = Option.bind (find_interface name t) (fun i -> i.addr)

let addresses t =
  List.filter_map (fun i -> Option.map (fun a -> (i.if_name, a)) i.addr) t.interfaces

let has_secret_value v t = List.exists (fun s -> secret_value s = v) t.secrets
