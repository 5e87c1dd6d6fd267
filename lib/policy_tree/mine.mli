(** Tree-mining: cluster a flat policy list into the topology hierarchy.

    The segment hierarchy comes from the network itself — host-bearing
    subnets are the leaves, grouped into interior nodes by the OSPF area
    of the subnet's owning device (pods and campuses in generated
    fleets, one area in the paper networks).  Each flat policy becomes a
    rule at the leaf containing its destination: [Reachable] → [allow],
    [Isolated] → [deny], [Waypoint w] → [require w] + [allow]; sources
    generalise to their own segment names.  Policies whose destination
    lies in no segment (e.g. the fleet ISP uplink) become root rules
    with an explicit [/32] destination.  A final pass hoists rules
    shared by every child of a group up to the group node.

    The construction preserves every flat verdict by design — POL004
    over the result and the same policy list proves the equivalence. *)

open Heimdall_control
open Heimdall_net
open Heimdall_verify

type seg = {
  seg_prefix : Prefix.t;
  seg_group : string;  (** Interior node this leaf belongs to. *)
  seg_owners : string list;  (** Devices owning the segment. *)
}

val segs_of_network : Network.t -> seg list
(** Host-bearing subnets, grouped by the owning device's OSPF area
    (["area-N"]), owners from the device holding the subnet address.
    Sorted by prefix. *)

val of_policies : segs:seg list -> Policy.t list -> Poltree.t
(** Cluster the policies into the given segment hierarchy. *)

val mine : ?options:Spec_miner.options -> Dataplane.t -> Poltree.t
(** {!Spec_miner.mine} composed with {!of_policies} over
    {!segs_of_network}. *)
