open Heimdall_net

let bprintf = Printf.bprintf

let render_interface_into buf (i : Ast.interface) =
  bprintf buf "interface %s\n" i.if_name;
  Option.iter (fun d -> bprintf buf " description %s\n" d) i.description;
  Option.iter (fun a -> bprintf buf " ip address %s\n" (Ifaddr.to_string a)) i.addr;
  Option.iter (fun c -> bprintf buf " ospf cost %d\n" c) i.ospf_cost;
  Option.iter (fun a -> bprintf buf " ospf area %d\n" a) i.ospf_area;
  Option.iter (fun a -> bprintf buf " access-group %s in\n" a) i.acl_in;
  Option.iter (fun a -> bprintf buf " access-group %s out\n" a) i.acl_out;
  (match i.switchport with
  | None -> ()
  | Some (Ast.Access v) -> bprintf buf " switchport access vlan %d\n" v
  | Some (Ast.Trunk vs) ->
      bprintf buf " switchport trunk allowed vlan %s\n"
        (String.concat "," (List.map string_of_int vs)));
  if not i.enabled then bprintf buf " shutdown\n"

let render_acl_into buf (acl : Acl.t) =
  List.iter
    (fun r -> bprintf buf "access-list %s %s\n" acl.name (Acl.rule_to_string r))
    acl.rules

let render_acl acl =
  let buf = Buffer.create 128 in
  render_acl_into buf acl;
  Buffer.contents buf

let render_secret_into buf (s : Ast.secret) =
  match s with
  | Enable_secret v -> bprintf buf "enable secret %s\n" v
  | Snmp_community v -> bprintf buf "snmp-server community %s\n" v
  | Ipsec_key (k, peer) -> bprintf buf "crypto ipsec key %s peer %s\n" k (Ipv4.to_string peer)
  | User_password (u, p) -> bprintf buf "username %s password %s\n" u p

let render (c : Ast.t) =
  let c = Ast.normalize c in
  let buf = Buffer.create 1024 in
  let bang () = bprintf buf "!\n" in
  bprintf buf "hostname %s\n" c.hostname;
  List.iter (render_secret_into buf) c.secrets;
  Option.iter (fun g -> bprintf buf "ip default-gateway %s\n" (Ipv4.to_string g))
    c.default_gateway;
  bang ();
  List.iter
    (fun (id, name) ->
      bprintf buf "vlan %d\n name %s\n" id name;
      bang ())
    c.vlans;
  List.iter
    (fun i ->
      render_interface_into buf i;
      bang ())
    c.interfaces;
  (match c.ospf with
  | None -> ()
  | Some o ->
      bprintf buf "router ospf\n";
      Option.iter (fun id -> bprintf buf " router-id %s\n" (Ipv4.to_string id)) o.router_id;
      List.iter
        (fun (p, area) -> bprintf buf " network %s area %d\n" (Prefix.to_string p) area)
        o.networks;
      if o.default_originate then bprintf buf " default-information originate\n";
      bang ());
  (match c.bgp with
  | None -> ()
  | Some b ->
      bprintf buf "router bgp %d\n" b.local_as;
      List.iter
        (fun (n : Ast.bgp_neighbor) ->
          bprintf buf " neighbor %s remote-as %d\n" (Ipv4.to_string n.peer) n.remote_as)
        b.bgp_neighbors;
      List.iter (fun p -> bprintf buf " network %s\n" (Prefix.to_string p)) b.advertised;
      bang ());
  List.iter
    (fun (r : Ast.static_route) ->
      if r.sr_distance = 1 then
        bprintf buf "ip route %s %s\n" (Prefix.to_string r.sr_prefix)
          (Ipv4.to_string r.sr_next_hop)
      else
        bprintf buf "ip route %s %s %d\n" (Prefix.to_string r.sr_prefix)
          (Ipv4.to_string r.sr_next_hop) r.sr_distance)
    c.static_routes;
  List.iter (render_acl_into buf) c.acls;
  Buffer.contents buf

let line_count c =
  render c |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length
