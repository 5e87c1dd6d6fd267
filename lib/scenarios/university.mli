(** The university evaluation network (paper Table 1, row 2): 13 routers
    (one of them the datacentre firewall), 17 hosts, 92 links.

    Layout: a redundant backbone (core1/core2, area 0) with three
    distribution routers and an internet edge; three OSPF stub areas hang
    off the distribution layer (area 1: CS+EE, area 2: Bio+Admin,
    area 3: dorms + the firewalled datacentre).  Each department has a
    pair of access switches (dual-homed trunks) carrying its VLANs; the
    SVIs live on the department's access router.  13 host-bearing subnets
    produce the ~175-policy matrix; fw1 guards the server subnets, which
    upgrades server-bound policies to waypoint policies. *)

open Heimdall_control

val build : unit -> Network.t
(** Construct the healthy network (deterministic). *)

val policies : Network.t -> Heimdall_verify.Policy.t list
(** Mined policies (subnet ICMP matrix + TCP/80 to web1 + TCP/25 to
    mail1). *)

val issues : Network.t -> Heimdall_msp.Issue.t list
(** Three issues mirroring the enterprise set: [vlan] (dorm port on the
    wrong VLAN, root cause on a switch), [ospf] (area mismatch on acc5's
    uplinks), [isp] (edge renumbering). *)

val web_server : string
