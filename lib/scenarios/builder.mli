(** A small imperative DSL for assembling evaluation networks: automatic
    interface naming, automatic /30 transit addressing, OSPF network
    statements collected per router, hosts wired to access ports with
    matching default gateways.  Both Table-1 networks are written against
    this builder. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control

type t

val create : unit -> t

(** {2 Nodes} *)

val router : t -> string -> unit
val switch : t -> string -> unit
val host : t -> string -> unit
val firewall : t -> string -> unit

(** {2 Layer-3 plumbing} *)

val p2p : ?area:int -> ?cost:int -> t -> string -> string -> Prefix.t
(** Wire a new point-to-point link between two routers: allocates the next
    transit /30 (10.200.k.0/30), creates one fresh interface on each end
    with .1/.2, and (when [area] is given) marks the subnet for OSPF in
    that area on both routers.  Returns the allocated subnet. *)

val p2p_bundle : ?area:int -> ?cost:int -> t -> string -> string -> int -> unit
(** [n] parallel {!p2p} links (a redundant bundle). *)

val unwired_l3 : ?area:int -> t -> string -> Ifaddr.t -> string
(** Add an addressed interface with no cable (upstream ports, loopback-ish
    service subnets).  Returns the interface name. *)

(** {2 Layer-2 / VLANs} *)

val vlan : t -> string -> int -> string -> unit
(** Define a VLAN (id, name) on a device. *)

val svi : ?area:int -> t -> string -> int -> Ifaddr.t -> unit
(** Add an SVI ([interface vlan<id>]) with the given address; defines the
    VLAN implicitly (named "vlan<id>") if not already defined. *)

val trunk_link : t -> string -> string -> vlans:int list -> unit
(** Wire a trunk between two devices (switchport trunk on both ends). *)

val host_addr : t -> string -> Ifaddr.t -> gateway:Ipv4.t -> unit
(** Give a host its address and default gateway (interface eth0; the host
    must be wired with {!access_link} or {!p2p} separately — use
    {!attach_host} for the common case). *)

val attach_host :
  t -> host_name:string -> dev:string -> vlan:int -> addr:Ifaddr.t -> gateway:Ipv4.t -> unit
(** Declare the host, wire it to an access port on [dev], assign its
    address and gateway. *)

val routed_host :
  ?area:int -> t -> host_name:string -> dev:string -> subnet:Prefix.t -> host_octet:int -> unit
(** Declare the host and wire it to a routed port on [dev]: the device
    side gets [subnet].1/len (OSPF-announced when [area] is given), the
    host gets [subnet].[host_octet]/len with the device as gateway. *)

(** {2 Config extras} *)

val static_route : t -> string -> Prefix.t -> Ipv4.t -> unit
val default_originate : t -> string -> unit
val acl : t -> string -> Acl.t -> unit
val bind_acl : t -> node:string -> iface:string -> dir:[ `In | `Out ] -> string -> unit
val secret : t -> string -> Ast.secret -> unit
val ospf_router_id : t -> string -> Ipv4.t -> unit
val ospf_network : t -> string -> Prefix.t -> int -> unit
(** Explicitly add an OSPF network statement (normally done by [p2p]/[svi]). *)

val find_iface_to : t -> string -> string -> string option
(** [find_iface_to t a b] is the name of the first of [a]'s interfaces
    cabled to [b], if any. *)

val build : t -> Network.t
(** Materialise topology + configs.  @raise Invalid_argument on
    inconsistent builder state. *)
