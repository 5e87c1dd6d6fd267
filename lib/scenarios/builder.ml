open Heimdall_net
open Heimdall_config
open Heimdall_control

type node_state = {
  kind : Topology.node_kind;
  mutable interfaces : Ast.interface list;  (* in creation order *)
  mutable vlans : (int * string) list;
  mutable acls : Acl.t list;
  mutable statics : Ast.static_route list;
  mutable ospf_networks : (Prefix.t * int) list;
  mutable ospf_router_id : Ipv4.t option;
  mutable originate : bool;
  mutable gateway : Ipv4.t option;
  mutable secrets : Ast.secret list;
}

type t = {
  nodes : (string, node_state) Hashtbl.t;
  mutable order : string list;  (* reversed creation order *)
  mutable links : (Topology.endpoint * Topology.endpoint) list;  (* reversed *)
  iface_counter : (string, int) Hashtbl.t;
  mutable p2p_counter : int;
}

let create () =
  {
    nodes = Hashtbl.create 64;
    order = [];
    links = [];
    iface_counter = Hashtbl.create 64;
    p2p_counter = 0;
  }

let node_state t name =
  match Hashtbl.find_opt t.nodes name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Builder: unknown node %s" name)

let add_node t name kind =
  if Hashtbl.mem t.nodes name then
    invalid_arg (Printf.sprintf "Builder: duplicate node %s" name);
  Hashtbl.replace t.nodes name
    {
      kind;
      interfaces = [];
      vlans = [];
      acls = [];
      statics = [];
      ospf_networks = [];
      ospf_router_id = None;
      originate = false;
      gateway = None;
      secrets = [];
    };
  t.order <- name :: t.order

let router t name = add_node t name Topology.Router
let switch t name = add_node t name Topology.Switch
let host t name = add_node t name Topology.Host
let firewall t name = add_node t name Topology.Firewall

(* Allocate the next interface name ("eth<N>") on a node. *)
let fresh_iface t node =
  ignore (node_state t node);
  let n = Option.value (Hashtbl.find_opt t.iface_counter node) ~default:0 in
  Hashtbl.replace t.iface_counter node (n + 1);
  Printf.sprintf "eth%d" n

let add_interface t node (iface : Ast.interface) =
  let s = node_state t node in
  if List.exists (fun (i : Ast.interface) -> i.if_name = iface.if_name) s.interfaces then
    invalid_arg (Printf.sprintf "Builder: duplicate interface %s on %s" iface.if_name node);
  s.interfaces <- s.interfaces @ [ iface ]

let add_ospf_network t node prefix area =
  let s = node_state t node in
  if not (List.exists (fun (p, _) -> Prefix.equal p prefix) s.ospf_networks) then
    s.ospf_networks <- s.ospf_networks @ [ (prefix, area) ]

let wire t a b = t.links <- (a, b) :: t.links

let p2p ?area ?cost t a b =
  let n = t.p2p_counter in
  t.p2p_counter <- n + 1;
  if n > 255 * 255 then invalid_arg "Builder: transit address space exhausted";
  let subnet = Prefix.of_string (Printf.sprintf "10.200.%d.%d/30" (n / 64) (n mod 64 * 4)) in
  let addr_a = Ifaddr.make (Prefix.host subnet 1) 30 in
  let addr_b = Ifaddr.make (Prefix.host subnet 2) 30 in
  let if_a = fresh_iface t a and if_b = fresh_iface t b in
  add_interface t a (Ast.interface ~addr:addr_a ?ospf_cost:cost ~description:("to " ^ b) if_a);
  add_interface t b (Ast.interface ~addr:addr_b ?ospf_cost:cost ~description:("to " ^ a) if_b);
  (match area with
  | Some area ->
      add_ospf_network t a subnet area;
      add_ospf_network t b subnet area
  | None -> ());
  wire t { Topology.node = a; iface = if_a } { Topology.node = b; iface = if_b };
  subnet

let p2p_bundle ?area ?cost t a b n =
  for _ = 1 to n do
    ignore (p2p ?area ?cost t a b)
  done

let unwired_l3 ?area t node addr =
  let iface = fresh_iface t node in
  add_interface t node (Ast.interface ~addr iface);
  (match area with
  | Some area -> add_ospf_network t node (Ifaddr.subnet addr) area
  | None -> ());
  iface

let vlan t node id name =
  let s = node_state t node in
  if not (List.mem_assoc id s.vlans) then s.vlans <- s.vlans @ [ (id, name) ]

let svi ?area t node id addr =
  vlan t node id (Printf.sprintf "vlan%d" id);
  add_interface t node (Ast.interface ~addr (Printf.sprintf "vlan%d" id));
  match area with
  | Some area -> add_ospf_network t node (Ifaddr.subnet addr) area
  | None -> ()

(* Wire [peer]'s next fresh interface to a fresh access port (switchport
   access [vlan]) on [dev]. *)
let access_link t ~dev ~peer ~vlan:v =
  vlan t dev v (Printf.sprintf "vlan%d" v);
  let dev_if = fresh_iface t dev in
  add_interface t dev
    (Ast.interface ~switchport:(Ast.Access v) ~description:("to " ^ peer) dev_if);
  let peer_if = fresh_iface t peer in
  add_interface t peer (Ast.interface ~description:("to " ^ dev) peer_if);
  wire t { Topology.node = dev; iface = dev_if } { Topology.node = peer; iface = peer_if }

let trunk_link t a b ~vlans:vs =
  List.iter
    (fun v ->
      vlan t a v (Printf.sprintf "vlan%d" v);
      vlan t b v (Printf.sprintf "vlan%d" v))
    vs;
  let if_a = fresh_iface t a and if_b = fresh_iface t b in
  add_interface t a (Ast.interface ~switchport:(Ast.Trunk vs) ~description:("to " ^ b) if_a);
  add_interface t b (Ast.interface ~switchport:(Ast.Trunk vs) ~description:("to " ^ a) if_b);
  wire t { Topology.node = a; iface = if_a } { Topology.node = b; iface = if_b }

let host_addr t name addr ~gateway =
  let s = node_state t name in
  s.gateway <- Some gateway;
  match s.interfaces with
  | [] ->
      (* Unwired host: give it a standalone eth0. *)
      add_interface t name (Ast.interface ~addr (fresh_iface t name))
  | (i : Ast.interface) :: rest -> s.interfaces <- { i with addr = Some addr } :: rest

let attach_host t ~host_name ~dev ~vlan:v ~addr ~gateway =
  host t host_name;
  access_link t ~dev ~peer:host_name ~vlan:v;
  host_addr t host_name addr ~gateway

let routed_host ?area t ~host_name ~dev ~subnet ~host_octet =
  host t host_name;
  let len = Prefix.length subnet in
  let dev_addr = Ifaddr.make (Prefix.host subnet 1) len in
  let host_ip = Ifaddr.make (Prefix.host subnet host_octet) len in
  let dev_if = fresh_iface t dev and host_if = fresh_iface t host_name in
  add_interface t dev (Ast.interface ~addr:dev_addr ~description:("to " ^ host_name) dev_if);
  add_interface t host_name (Ast.interface ~addr:host_ip ~description:("to " ^ dev) host_if);
  (match area with
  | Some area -> add_ospf_network t dev subnet area
  | None -> ());
  (node_state t host_name).gateway <- Some (Ifaddr.address dev_addr);
  wire t { Topology.node = dev; iface = dev_if } { Topology.node = host_name; iface = host_if }

let static_route t node prefix next_hop =
  let s = node_state t node in
  s.statics <- s.statics @ [ { Ast.sr_prefix = prefix; sr_next_hop = next_hop; sr_distance = 1 } ]

let default_originate t node = (node_state t node).originate <- true

let acl t node a =
  let s = node_state t node in
  s.acls <- s.acls @ [ a ]

let bind_acl t ~node ~iface ~dir name =
  let s = node_state t node in
  s.interfaces <-
    List.map
      (fun (i : Ast.interface) ->
        if i.if_name = iface then
          match dir with
          | `In -> { i with acl_in = Some name }
          | `Out -> { i with acl_out = Some name }
        else i)
      s.interfaces

let secret t node sec =
  let s = node_state t node in
  s.secrets <- s.secrets @ [ sec ]

let ospf_router_id t node id = (node_state t node).ospf_router_id <- Some id
let ospf_network t node prefix area = add_ospf_network t node prefix area

let find_iface_to t a b =
  List.rev t.links
  |> List.find_map (fun ((x : Topology.endpoint), (y : Topology.endpoint)) ->
         if x.node = a && y.node = b then Some x.iface
         else if y.node = a && x.node = b then Some y.iface
         else None)

let build t =
  let names = List.rev t.order in
  let topo =
    List.fold_left
      (fun topo name -> Topology.add_node name (node_state t name).kind topo)
      Topology.empty names
  in
  let topo =
    List.fold_left (fun topo (a, b) -> Topology.add_link a b topo) topo (List.rev t.links)
  in
  let configs =
    List.map
      (fun name ->
        let s = node_state t name in
        let ospf =
          if s.ospf_networks = [] && not s.originate then None
          else
            Some
              {
                Ast.router_id = s.ospf_router_id;
                networks = s.ospf_networks;
                default_originate = s.originate;
              }
        in
        ( name,
          Ast.make ~interfaces:s.interfaces ~vlans:s.vlans ~acls:s.acls
            ~static_routes:s.statics ?ospf ?default_gateway:s.gateway ~secrets:s.secrets
            name ))
      names
  in
  Network.make topo configs
