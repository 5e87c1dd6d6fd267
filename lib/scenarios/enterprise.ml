open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_msp

let web_server = "h8"
let sensitive_subnet = Prefix.of_string "10.3.10.0/24"

let p = Prefix.of_string
let ia = Ifaddr.of_string
let ip = Ipv4.of_string

let build () =
  let b = Builder.create () in
  List.iter (Builder.router b) [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6"; "r7"; "r8"; "r9" ];
  (* Core and distribution transit links (area 0). *)
  let area = 0 in
  ignore (Builder.p2p ~area b "r1" "r2");
  ignore (Builder.p2p ~area b "r1" "r3");
  ignore (Builder.p2p ~area b "r2" "r3");
  ignore (Builder.p2p ~area b "r2" "r4");
  ignore (Builder.p2p ~area b "r2" "r5");
  ignore (Builder.p2p ~area b "r3" "r6");
  ignore (Builder.p2p ~area b "r3" "r7");
  ignore (Builder.p2p ~area b "r4" "r5");
  ignore (Builder.p2p ~area b "r4" "r6");
  ignore (Builder.p2p ~area b "r2" "r8");
  ignore (Builder.p2p ~area b "r3" "r8");
  ignore (Builder.p2p ~area b "r1" "r9");
  (* Backup link r6-r7, deliberately outside the IGP. *)
  ignore (Builder.p2p b "r6" "r7");
  (* Office subnets. *)
  Builder.svi ~area b "r4" 10 (ia "10.1.10.1/24");
  Builder.vlan b "r4" 30 "guests";
  Builder.attach_host b ~host_name:"h1" ~dev:"r4" ~vlan:10 ~addr:(ia "10.1.10.11/24")
    ~gateway:(ip "10.1.10.1");
  Builder.attach_host b ~host_name:"h2" ~dev:"r4" ~vlan:10 ~addr:(ia "10.1.10.12/24")
    ~gateway:(ip "10.1.10.1");
  Builder.svi ~area b "r5" 20 (ia "10.1.20.1/24");
  Builder.attach_host b ~host_name:"h3" ~dev:"r5" ~vlan:20 ~addr:(ia "10.1.20.11/24")
    ~gateway:(ip "10.1.20.1");
  Builder.attach_host b ~host_name:"h4" ~dev:"r5" ~vlan:20 ~addr:(ia "10.1.20.12/24")
    ~gateway:(ip "10.1.20.1");
  Builder.svi ~area b "r6" 30 (ia "10.2.10.1/24");
  Builder.attach_host b ~host_name:"h5" ~dev:"r6" ~vlan:30 ~addr:(ia "10.2.10.11/24")
    ~gateway:(ip "10.2.10.1");
  Builder.attach_host b ~host_name:"h6" ~dev:"r6" ~vlan:30 ~addr:(ia "10.2.10.12/24")
    ~gateway:(ip "10.2.10.1");
  Builder.routed_host ~area b ~host_name:"h7" ~dev:"r7" ~subnet:(p "10.2.20.0/24")
    ~host_octet:11;
  (* Server subnet behind r8, protected by an ACL on the uplinks. *)
  Builder.svi ~area b "r8" 40 (ia "10.3.10.1/24");
  Builder.attach_host b ~host_name:"h8" ~dev:"r8" ~vlan:40 ~addr:(ia "10.3.10.11/24")
    ~gateway:(ip "10.3.10.1");
  Builder.attach_host b ~host_name:"h9" ~dev:"r8" ~vlan:40 ~addr:(ia "10.3.10.12/24")
    ~gateway:(ip "10.3.10.1");
  let srv_acl =
    Acl.make "SRV_PROT"
      [
        Acl.rule ~proto:(Acl.Proto Flow.Icmp) ~seq:10 Acl.Deny (p "10.1.10.0/24")
          sensitive_subnet;
        Acl.rule ~seq:20 Acl.Permit Prefix.any Prefix.any;
      ]
  in
  Builder.acl b "r8" srv_acl;
  (* The uplink interfaces are the first two created on r8. *)
  List.iter
    (fun peer ->
      match Builder.find_iface_to b "r8" peer with
      | Some iface -> Builder.bind_acl b ~node:"r8" ~iface ~dir:`In "SRV_PROT"
      | None -> invalid_arg "enterprise: r8 uplink not found")
    [ "r2"; "r3" ];
  (* Management services subnet on r9 (no host). *)
  ignore (Builder.unwired_l3 ~area b "r9" (ia "10.9.0.1/24"));
  (* Internet edge: upstream port + static default, redistributed. *)
  ignore (Builder.unwired_l3 b "r1" (ia "203.0.113.2/30"));
  Builder.static_route b "r1" Prefix.any (ip "203.0.113.1");
  Builder.default_originate b "r1";
  (* Router IDs and secrets. *)
  List.iteri
    (fun i r ->
      Builder.ospf_router_id b r (Ipv4.of_octets 1 1 1 (i + 1));
      Builder.secret b r (Ast.Enable_secret (Printf.sprintf "ent-enable-%s-9f3a" r));
      Builder.secret b r (Ast.Snmp_community (Printf.sprintf "ent-snmp-%s-71bd" r)))
    [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6"; "r7"; "r8"; "r9" ];
  Builder.secret b "r1" (Ast.Ipsec_key ("ent-ipsec-psk-c4f1e2", ip "203.0.113.1"));
  List.iter
    (fun h -> Builder.secret b h (Ast.User_password ("admin", Printf.sprintf "ent-pw-%s-55aa" h)))
    [ "h1"; "h2"; "h3"; "h4"; "h5"; "h6"; "h7"; "h8"; "h9" ];
  Builder.build b

let policies net =
  let dp = Dataplane.compute net in
  Heimdall_verify.Spec_miner.mine
    ~options:{ Heimdall_verify.Spec_miner.mine_icmp = true; tcp_services = [ (web_server, 80) ] }
    dp

(* --------------------------------------------------------------- *)
(* Issues (paper §5: vlan, ospf, isp on the enterprise network).    *)
(* --------------------------------------------------------------- *)

let inject_change node op net =
  match Network.apply_changes [ Change.v node op ] net with
  | Ok net -> net
  | Error m -> invalid_arg ("enterprise issue injection failed: " ^ m)

let vlan_issue net =
  (* h2's access port on r4 lands in the wrong VLAN. *)
  let port =
    match
      List.find_map
        (fun (l : Topology.link) ->
          if l.a.node = "r4" && l.b.node = "h2" then Some l.a.iface
          else if l.b.node = "r4" && l.a.node = "h2" then Some l.b.iface
          else None)
        (Topology.links (Network.topology net))
    with
    | Some i -> i
    | None -> invalid_arg "enterprise: h2 port on r4 not found"
  in
  {
    Issue.name = "vlan";
    ticket =
      Ticket.make ~id:"ENT-001" ~kind:Ticket.Vlan
        ~description:"h2 cannot reach the department printer h3 (or anything else)"
        ~endpoints:[ "h2"; "h3" ];
    inject =
      inject_change "r4"
        (Change.Set_switchport { iface = port; switchport = Some (Ast.Access 30) });
    root_cause = "r4";
    fix_commands =
      [
        "connect h2";
        "show ip route";
        "ping 10.1.10.1";
        "connect r4";
        "show vlan";
        "show interfaces";
        "show running-config";
        Printf.sprintf "configure interface %s switchport access vlan 10" port;
        "connect h2";
        "ping 10.1.10.1";
        "ping 10.1.20.11";
      ];
    probe = Flow.icmp (ip "10.1.10.12") (ip "10.1.20.11");
  }

let ospf_issue net =
  let uplink =
    (* r7's interface towards r3 — found from the topology. *)
    match
      List.find_map
        (fun (l : Topology.link) ->
          if l.a.node = "r7" && l.b.node = "r3" then Some l.a.iface
          else if l.b.node = "r7" && l.a.node = "r3" then Some l.b.iface
          else None)
        (Topology.links (Network.topology net))
    with
    | Some i -> i
    | None -> invalid_arg "enterprise: r7 uplink not found"
  in
  {
    Issue.name = "ospf";
    ticket =
      Ticket.make ~id:"ENT-002" ~kind:Ticket.Routing
        ~description:"office h7 lost connectivity to the rest of the network"
        ~endpoints:[ "h7"; "h1" ];
    inject = inject_change "r7" (Change.Set_ospf_area { iface = uplink; area = Some 1 });
    root_cause = "r7";
    fix_commands =
      [
        "connect h7";
        "ping 10.1.10.11";
        "connect r7";
        "show ip ospf neighbors";
        "show ip route";
        "show running-config";
        Printf.sprintf "configure interface %s ospf area 0" uplink;
        "show ip ospf neighbors";
        "ping 10.1.10.11";
      ];
    probe = Flow.icmp (ip "10.2.20.11") (ip "10.1.10.11");
  }

let isp_issue net =
  ignore net;
  {
    Issue.name = "isp";
    ticket =
      Ticket.make ~id:"ENT-003" ~kind:Ticket.External
        ~description:
          "migrate the uplink to the new ISP block 198.51.100.0/30 (old circuit is down)"
        ~endpoints:[ "r1"; "h1" ];
    inject =
      (fun net ->
        inject_change "r1"
          (Change.Set_interface_enabled { iface = "eth3"; enabled = false })
          net);
    root_cause = "r1";
    fix_commands =
      [
        "connect r1";
        "show interfaces";
        "configure interface eth3 ip address 198.51.100.2/30";
        "configure interface eth3 no shutdown";
        "configure no ip route 0.0.0.0/0 203.0.113.1";
        "configure ip route 0.0.0.0/0 198.51.100.1";
        "show ip route";
      ];
    probe = Flow.icmp (ip "10.1.10.11") (ip "198.51.100.2");
  }

let issues net = [ vlan_issue net; ospf_issue net; isp_issue net ]
