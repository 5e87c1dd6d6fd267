(** The enterprise evaluation network (paper Table 1, row 1): 9 routers,
    9 hosts, 22 links.

    Layout: r1 is the internet edge (upstream port ext0, originates the
    default route); r2/r3 form the redundant core; r4–r7 are access
    routers for the four office subnets (r4/r5/r6 switch their hosts on
    VLANs with SVIs, r7 uses a routed port); r8 fronts the server subnet
    and carries the protection ACL; r9 is the management router.  All
    routing is single-area OSPF.

    {v
            ext0 |                 r9
                 r1 --------------/
                /  \
              r2 -- r3
             /| \\   /| \
            / |  r8  | \
          r4--r5     r6--r7
          (r4 ------ r6)
    v} *)

open Heimdall_net
open Heimdall_control

val build : unit -> Network.t
(** Construct the healthy network (deterministic). *)

val policies : Network.t -> Heimdall_verify.Policy.t list
(** The mined policy set for this network (subnet ICMP matrix plus TCP/80
    towards the web server h8). *)

val issues : Network.t -> Heimdall_msp.Issue.t list
(** The three pilot-study issues, in paper order: [vlan], [ospf], [isp]. *)

val web_server : string
(** h8 — the server the TCP service policies target. *)

val sensitive_subnet : Prefix.t
(** The protected server subnet 10.3.10.0/24. *)
