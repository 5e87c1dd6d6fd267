(** Concrete flows (5-tuples) — the unit of dataplane tracing and of policy
    queries. *)

type proto = Icmp | Tcp | Udp

val proto_to_string : proto -> string
val proto_of_string : string -> proto option

type t = {
  src : Ipv4.t;  (** Source address. *)
  dst : Ipv4.t;  (** Destination address. *)
  proto : proto;
  src_port : int;  (** 0 for ICMP. *)
  dst_port : int;  (** 0 for ICMP. *)
}

val make : ?proto:proto -> ?src_port:int -> ?dst_port:int -> Ipv4.t -> Ipv4.t -> t
(** [make src dst] is an ICMP flow by default; ports default to 0 for ICMP
    and to ephemeral 40000 / service 80 for TCP and UDP. *)

val icmp : Ipv4.t -> Ipv4.t -> t
(** An ICMP echo flow — what [ping] sends. *)

val tcp : ?src_port:int -> dst_port:int -> Ipv4.t -> Ipv4.t -> t

val reverse : t -> t
(** Swap the endpoints (for return traffic). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val compare : t -> t -> int
val equal : t -> t -> bool
