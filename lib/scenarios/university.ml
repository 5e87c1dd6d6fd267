open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_msp

let web_server = "web1"
let mail_server = "mail1"
(* The datacentre block that fw1 protects. *)
let sensitive_prefix = Prefix.of_string "10.16.0.0/16"

let p = Prefix.of_string
let ia = Ifaddr.of_string
let ip = Ipv4.of_string

(* Departments: access router, its two switches, its VLANs with subnets
   and hosts: (vlan, subnet, [host names]). *)
type dept = {
  acc : string;
  sw_a : string;
  sw_b : string;
  area : int;
  vlans : (int * string * (string * int) list) list;
      (* vlan id, subnet string, hosts with their last octet *)
}

let departments =
  [
    {
      acc = "acc1";
      sw_a = "sw1a";
      sw_b = "sw1b";
      area = 1;
      vlans =
        [
          (10, "10.11.10.0/24", [ ("cs1", 11); ("cs2", 12) ]);
          (11, "10.11.11.0/24", [ ("cs3", 11) ]);
          (12, "10.11.12.0/24", [ ("prn1", 11) ]);
        ];
    };
    {
      acc = "acc2";
      sw_a = "sw2a";
      sw_b = "sw2b";
      area = 1;
      vlans =
        [
          (20, "10.12.20.0/24", [ ("ee1", 11); ("ee2", 12) ]);
          (21, "10.12.21.0/24", [ ("ee3", 11) ]);
        ];
    };
    {
      acc = "acc3";
      sw_a = "sw3a";
      sw_b = "sw3b";
      area = 2;
      vlans =
        [
          (30, "10.13.30.0/24", [ ("bio1", 11) ]);
          (31, "10.13.31.0/24", [ ("bio2", 11) ]);
        ];
    };
    {
      acc = "acc4";
      sw_a = "sw4a";
      sw_b = "sw4b";
      area = 2;
      vlans =
        [
          (40, "10.14.40.0/24", [ ("adm1", 11) ]);
          (41, "10.14.41.0/24", [ ("fin1", 11) ]);
        ];
    };
    {
      acc = "acc5";
      sw_a = "sw5a";
      sw_b = "sw5b";
      area = 3;
      vlans =
        [
          (50, "10.15.50.0/24", [ ("dorm1", 11); ("dorm2", 12) ]);
          (51, "10.15.51.0/24", [ ("dorm3", 11) ]);
        ];
    };
    {
      acc = "acc6";
      sw_a = "sw6a";
      sw_b = "sw6b";
      area = 3;
      vlans =
        [
          (60, "10.16.60.0/24", [ ("web1", 11); ("mail1", 12) ]);
          (61, "10.16.61.0/24", [ ("bak1", 11) ]);
        ];
    };
  ]

let build () =
  let b = Builder.create () in
  List.iter (Builder.router b)
    [ "core1"; "core2"; "dist1"; "dist2"; "dist3"; "edge1" ];
  Builder.firewall b "fw1";
  List.iter (fun d -> Builder.router b d.acc) departments;
  List.iter
    (fun d ->
      Builder.switch b d.sw_a;
      Builder.switch b d.sw_b)
    departments;
  (* Backbone (area 0). *)
  Builder.p2p_bundle ~area:0 b "core1" "core2" 4;
  List.iter
    (fun dist ->
      Builder.p2p_bundle ~area:0 b dist "core1" 2;
      Builder.p2p_bundle ~area:0 b dist "core2" 2)
    [ "dist1"; "dist2"; "dist3" ];
  ignore (Builder.p2p ~area:0 b "dist1" "dist2");
  ignore (Builder.p2p ~area:0 b "dist2" "dist3");
  ignore (Builder.p2p ~area:0 b "dist1" "dist3");
  Builder.p2p_bundle ~area:0 b "edge1" "core1" 3;
  Builder.p2p_bundle ~area:0 b "edge1" "core2" 3;
  (* Area 1: CS + EE behind dist1. *)
  Builder.p2p_bundle ~area:1 b "acc1" "dist1" 2;
  Builder.p2p_bundle ~area:1 b "acc2" "dist1" 2;
  ignore (Builder.p2p ~area:1 b "acc1" "acc2");
  (* Area 2: Bio + Admin behind dist2. *)
  Builder.p2p_bundle ~area:2 b "acc3" "dist2" 2;
  Builder.p2p_bundle ~area:2 b "acc4" "dist2" 2;
  ignore (Builder.p2p ~area:2 b "acc3" "acc4");
  (* Area 3: dorms + firewalled datacentre behind dist3. *)
  Builder.p2p_bundle ~area:3 b "acc5" "dist3" 2;
  Builder.p2p_bundle ~area:3 b "fw1" "dist3" 2;
  Builder.p2p_bundle ~area:3 b "acc6" "fw1" 2;
  (* Dark-fibre backups, not in the IGP. *)
  ignore (Builder.p2p b "acc2" "acc3");
  ignore (Builder.p2p b "acc4" "acc5");
  Builder.p2p_bundle b "acc5" "dist2" 2;
  (* Departments: SVIs on the access router, dual-homed switch pair. *)
  List.iter
    (fun d ->
      let vlan_ids = List.map (fun (v, _, _) -> v) d.vlans in
      List.iter
        (fun (v, subnet, _) ->
          let sn = p subnet in
          Builder.svi ~area:d.area b d.acc v (Ifaddr.make (Prefix.host sn 1) (Prefix.length sn)))
        d.vlans;
      Builder.trunk_link b d.sw_a d.acc ~vlans:vlan_ids;
      Builder.trunk_link b d.sw_a d.acc ~vlans:vlan_ids;
      Builder.trunk_link b d.sw_b d.acc ~vlans:vlan_ids;
      Builder.trunk_link b d.sw_b d.acc ~vlans:vlan_ids;
      Builder.trunk_link b d.sw_a d.sw_b ~vlans:vlan_ids;
      (* Hosts alternate between the two switches. *)
      List.iter
        (fun (v, subnet, hosts) ->
          let sn = p subnet in
          List.iteri
            (fun idx (host_name, octet) ->
              let sw = if idx mod 2 = 0 then d.sw_a else d.sw_b in
              Builder.attach_host b ~host_name ~dev:sw ~vlan:v
                ~addr:(Ifaddr.make (Prefix.host sn octet) (Prefix.length sn))
                ~gateway:(Prefix.host sn 1))
            hosts)
        d.vlans)
    departments;
  (* Datacentre protection on fw1 (inbound from the distribution side). *)
  let dc_acl =
    Acl.make "DC_PROT"
      [
        Acl.rule ~proto:(Acl.Proto Flow.Icmp) ~seq:10 Acl.Deny (p "10.15.50.0/24")
          sensitive_prefix;
        Acl.rule ~proto:(Acl.Proto Flow.Icmp) ~seq:20 Acl.Deny (p "10.15.51.0/24")
          sensitive_prefix;
        Acl.rule ~proto:(Acl.Proto Flow.Tcp) ~dst_port:(Acl.Eq 25) ~seq:30 Acl.Deny
          (p "10.15.0.0/16") sensitive_prefix;
        Acl.rule ~seq:40 Acl.Permit Prefix.any Prefix.any;
      ]
  in
  Builder.acl b "fw1" dc_acl;
  (* fw1's interfaces towards dist3 are the first two created on it. *)
  List.iteri
    (fun i _ -> Builder.bind_acl b ~node:"fw1" ~iface:(Printf.sprintf "eth%d" i) ~dir:`In "DC_PROT")
    [ (); () ];
  (* Internet edge. *)
  ignore (Builder.unwired_l3 b "edge1" (ia "203.0.113.2/30"));
  Builder.static_route b "edge1" Prefix.any (ip "203.0.113.1");
  Builder.default_originate b "edge1";
  (* Router IDs and secrets. *)
  let routers =
    [ "core1"; "core2"; "dist1"; "dist2"; "dist3"; "edge1"; "fw1" ]
    @ List.map (fun d -> d.acc) departments
  in
  List.iteri
    (fun i r ->
      Builder.ospf_router_id b r (Ipv4.of_octets 2 2 2 (i + 1));
      Builder.secret b r (Ast.Enable_secret (Printf.sprintf "uni-enable-%s-3d7c" r));
      Builder.secret b r (Ast.Snmp_community (Printf.sprintf "uni-snmp-%s-e90f" r)))
    routers;
  Builder.secret b "edge1" (Ast.Ipsec_key ("uni-ipsec-psk-77aa21", ip "203.0.113.1"));
  List.iter
    (fun d ->
      List.iter
        (fun (_, _, hosts) ->
          List.iter
            (fun (h, _) ->
              Builder.secret b h (Ast.User_password ("svc", Printf.sprintf "uni-pw-%s-10fe" h)))
            hosts)
        d.vlans)
    departments;
  Builder.build b

let policies net =
  let dp = Dataplane.compute net in
  Heimdall_verify.Spec_miner.mine
    ~options:
      {
        Heimdall_verify.Spec_miner.mine_icmp = true;
        tcp_services = [ (web_server, 80); (mail_server, 25) ];
      }
    dp

(* --------------------------------------------------------------- *)
(* Issues                                                           *)
(* --------------------------------------------------------------- *)

let inject_changes changes net =
  match Network.apply_changes changes net with
  | Ok net -> net
  | Error m -> invalid_arg ("university issue injection failed: " ^ m)

let port_between net a bn =
  List.find_map
    (fun (l : Topology.link) ->
      if l.a.node = a && l.b.node = bn then Some l.a.iface
      else if l.b.node = a && l.a.node = bn then Some l.b.iface
      else None)
    (Topology.links (Network.topology net))

let ports_between net a bn =
  List.filter_map
    (fun (l : Topology.link) ->
      if l.a.node = a && l.b.node = bn then Some l.a.iface
      else if l.b.node = a && l.a.node = bn then Some l.b.iface
      else None)
    (Topology.links (Network.topology net))

let vlan_issue net =
  (* dorm1's access port on sw5a falls into the wrong VLAN. *)
  let port =
    match port_between net "sw5a" "dorm1" with
    | Some i -> i
    | None -> invalid_arg "university: dorm1 port not found"
  in
  {
    Issue.name = "vlan";
    ticket =
      Ticket.make ~id:"UNI-001" ~kind:Ticket.Vlan
        ~description:"dorm1 lost all connectivity after a port move" ~endpoints:[ "dorm1"; "dorm3" ];
    inject =
      inject_changes
        [
          Change.v "sw5a"
            (Change.Set_switchport { iface = port; switchport = Some (Ast.Access 51) });
        ];
    root_cause = "sw5a";
    fix_commands =
      [
        "connect dorm1";
        "show ip route";
        "ping 10.15.50.1";
        "connect acc5";
        "show vlan";
        "show ip route";
        "connect sw5a";
        "show interfaces";
        "show running-config";
        Printf.sprintf "configure interface %s switchport access vlan 50" port;
        "connect dorm1";
        "ping 10.15.50.1";
        "ping 10.15.51.11";
      ];
    probe = Flow.icmp (ip "10.15.50.11") (ip "10.15.51.11");
  }

let ospf_issue net =
  let uplinks = ports_between net "acc5" "dist3" in
  if List.length uplinks <> 2 then invalid_arg "university: acc5 uplinks not found";
  {
    Issue.name = "ospf";
    ticket =
      Ticket.make ~id:"UNI-002" ~kind:Ticket.Routing
        ~description:"the dorm network cannot reach the campus (OSPF neighbours down)"
        ~endpoints:[ "dorm1"; "cs1" ];
    inject =
      inject_changes
        (List.map
           (fun iface -> Change.v "acc5" (Change.Set_ospf_area { iface; area = Some 1 }))
           uplinks);
    root_cause = "acc5";
    fix_commands =
      ([
         "connect dorm1";
         "ping 10.11.10.11";
         "connect acc5";
         "show ip ospf neighbors";
         "show ip route";
         "show running-config";
       ]
      @ List.map
          (fun iface -> Printf.sprintf "configure interface %s ospf area 3" iface)
          uplinks
      @ [ "show ip ospf neighbors"; "ping 10.11.10.11" ]);
    probe = Flow.icmp (ip "10.15.50.11") (ip "10.11.10.11");
  }

let isp_issue net =
  (* edge1's unwired upstream port: the only addressed interface with no
     cable. *)
  let ext =
    let cfg = Network.config_exn "edge1" net in
    let wired = Topology.interfaces_of "edge1" (Network.topology net) in
    match
      List.find_opt
        (fun (i : Ast.interface) -> i.addr <> None && not (List.mem i.if_name wired))
        cfg.interfaces
    with
    | Some i -> i.if_name
    | None -> invalid_arg "university: edge1 upstream port not found"
  in
  {
    Issue.name = "isp";
    ticket =
      Ticket.make ~id:"UNI-003" ~kind:Ticket.External
        ~description:"campus uplink migration to the new provider block 198.51.100.0/30"
        ~endpoints:[ "edge1"; "cs1" ];
    inject =
      inject_changes
        [ Change.v "edge1" (Change.Set_interface_enabled { iface = ext; enabled = false }) ];
    root_cause = "edge1";
    fix_commands =
      [
        "connect edge1";
        "show interfaces";
        Printf.sprintf "configure interface %s ip address 198.51.100.2/30" ext;
        Printf.sprintf "configure interface %s no shutdown" ext;
        "configure no ip route 0.0.0.0/0 203.0.113.1";
        "configure ip route 0.0.0.0/0 198.51.100.1";
        "show ip route";
      ];
    probe = Flow.icmp (ip "10.11.10.11") (ip "198.51.100.2");
  }

let issues net = [ vlan_issue net; ospf_issue net; isp_issue net ]
