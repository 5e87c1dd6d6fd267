(** PolTree: a hierarchical policy language over segment and service
    hierarchies.

    A tree mirrors how operators think about a network — campus →
    building → vlan → host-group — rather than how probes enumerate it.
    Each node owns a {e scope} (a set of destination prefixes) and an
    ordered rule list; a packet is decided by the deepest node whose
    scope contains its destination, walking outward to the root on the
    first match ({e child-overrides} semantics).  [deny!] rules are
    invariants: they bind the whole subtree and cannot be overridden by
    a descendant's [allow] — the contradiction the POL001 analyzer
    reports.  Everything compiles to the exact {!Heimdall_net.Packet_set}
    algebra (see {!Compile}), so all analyses are exact, not heuristic.

    This module is the AST plus its text renderer and JSON codec; the
    text parser lives in {!Parser}. *)

open Heimdall_net

type atom = {
  protos : Flow.proto list;  (** Non-empty; order irrelevant. *)
  dp_lo : int;
  dp_hi : int;  (** Inclusive destination-port interval. *)
}
(** One service atom: a protocol subset crossed with a destination-port
    interval.  Source ports are never constrained by the language. *)

type service = atom list
(** A service group, e.g. web = tcp 80, tcp 443. *)

type endpoint =
  | Any
  | Seg of string  (** A named node; stands for its declared scope. *)
  | Nets of Prefix.t list  (** Literal prefixes. *)

type action =
  | Allow
  | Deny
  | Deny_final  (** [deny!]: an invariant no descendant may override. *)
  | Require of string  (** Traffic must traverse this waypoint device. *)

type service_ref = Named of string | Inline of service

type rule = {
  action : action;
  service : service_ref;
  src : endpoint;
  dst : endpoint option;  (** [None] means the enclosing node's scope. *)
}

type node = {
  name : string;
  scope : Prefix.t list;  (** Destination prefixes this node governs. *)
  owners : string list;
      (** Devices administratively owning the segment (feeds POL005). *)
  rules : rule list;  (** Ordered; first match wins within the node. *)
  children : node list;  (** Ordered; earlier siblings take precedence. *)
}

type t = {
  services : (string * service) list;
  root : node;  (** Scope [0.0.0.0/0]; top-level rules live here. *)
}

val all_protos : Flow.proto list

val valid_name : string -> bool
(** Names for nodes, services, owners and waypoints: non-empty,
    [[A-Za-z0-9._-]+], not a grammar keyword. *)

val make_root : ?rules:rule list -> node list -> node
(** The canonical root: name ["root"], scope [[Prefix.any]]. *)

val node :
  ?owners:string list -> ?rules:rule list -> ?children:node list ->
  scope:Prefix.t list -> string -> node

val rule : ?src:endpoint -> ?dst:endpoint -> action -> service_ref -> rule
(** [src] defaults to [Any], [dst] to the enclosing node's scope. *)

val find_node : t -> string -> node option
(** Lookup by name anywhere in the tree (root included). *)

val node_count : t -> int
val rule_count : t -> int

val validate : t -> (unit, string) result
(** Structural checks: node names unique and non-empty, every [Named]
    service defined, every [Seg] endpoint resolvable, scopes non-empty,
    port intervals within bounds and non-inverted. *)

val render : t -> string
(** Text form; re-parses to an equal tree via {!Parser.parse}. *)

val rule_to_string : rule -> string
(** One rule in the text grammar, e.g. ["allow web from guests;"]. *)

val to_json : t -> Heimdall_json.Json.t

val of_json : Heimdall_json.Json.t -> (t, string) result
(** Decode and {!validate}. *)

val equal : t -> t -> bool
(** Structural equality (rule order and child order significant). *)
