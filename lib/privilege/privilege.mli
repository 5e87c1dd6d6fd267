(** [Privilege_msp]: the privilege specification an admin writes for a
    ticket, and its evaluator.

    A specification is an ordered list of predicates; each either allows
    or denies a set of (action, resource) pairs.  Evaluation is
    first-match-wins with an implicit trailing deny-everything — least
    privilege by default. *)

type effect = Allow | Deny

val effect_to_string : effect -> string

type pattern = string
(** Glob over dotted action names or resource names: ["*"] matches
    anything; a trailing ["*"] matches any suffix (["show.*"], ["r*"]);
    otherwise exact match. *)

val pattern_matches : pattern -> string -> bool

type resource = {
  node : pattern;  (** Device name pattern. *)
  iface : pattern option;  (** Interface scope; [None] = whole device. *)
}

val resource_of_string : string -> resource
(** ["r1"], ["r1:eth0"], ["*"], ["r*:eth*"]. *)

val resource_to_string : resource -> string

type predicate = { effect : effect; actions : pattern list; resources : resource list }

type t = { predicates : predicate list }
(** A [Privilege_msp].  The implicit default is deny. *)

val empty : t
(** Denies everything. *)

val allow_all : t
(** Allows everything — the baseline "full access" model. *)

val allow : ?iface:string -> actions:pattern list -> nodes:string list -> unit -> predicate
val deny : ?iface:string -> actions:pattern list -> nodes:string list -> unit -> predicate

val of_predicates : predicate list -> t
val prepend : predicate -> t -> t
(** Add a predicate at the front (highest precedence). *)

type request = { action : Action.t; node : string; req_iface : string option }
(** A concrete thing the technician wants to do. *)

val request : ?iface:string -> Action.t -> string -> request

val predicate_matches : predicate -> request -> bool
(** Whether one predicate matches the request (used to attribute a
    decision to the predicate that made it). *)

val evaluate : t -> request -> effect
(** First matching predicate decides; no match means [Deny]. *)

val allows : t -> request -> bool

val allowed_actions : t -> node:string -> kind:Heimdall_net.Topology.node_kind -> Action.t list
(** The subset of {!Action.available_on}[ kind] this spec allows on the
    node (device scope, no interface restriction) — the paper's "allowed
    commands" [C_n]. *)

val predicate_count : t -> int
val predicate_to_string : predicate -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
