(** Routes and forwarding tables (FIBs). *)

open Heimdall_net

type protocol = Connected | Static | Ospf | Bgp

val protocol_to_string : protocol -> string

val admin_distance : protocol -> int
(** Connected 0, Bgp 20, Static 1 (overridable per route), Ospf 110. *)

type route = {
  prefix : Prefix.t;
  next_hop : Ipv4.t option;  (** [None] means directly connected. *)
  out_iface : string;
  protocol : protocol;
  distance : int;
  metric : int;
}

val route_to_string : route -> string

type t
(** A FIB: best route per prefix, with longest-prefix-match lookup. *)

val empty : t

val of_candidates : route list -> t
(** Select the best route per prefix (lowest administrative distance, then
    lowest metric, then a deterministic tiebreak) and build the FIB. *)

val lookup : Ipv4.t -> t -> route option
(** Longest-prefix match. *)

val routes : t -> route list
(** All installed routes in prefix order. *)

val route_count : t -> int
val pp : Format.formatter -> t -> unit
