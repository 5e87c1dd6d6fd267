(** OSPF control-plane simulation.

    Implements the parts of OSPF the paper's scenarios exercise: interface
    participation via [network P area A] statements (with per-interface
    area/cost overrides), adjacency formation (same subnet, same area,
    L2-adjacent, both ends up), per-area shortest-path-first route
    computation, inter-area routes through area border routers, and
    [default-information originate].

    A wrong area or a shut interface silently breaks adjacency — exactly
    the failure mode of the paper's OSPF troubleshooting ticket. *)

open Heimdall_net

type iface = {
  router : string;
  iface : string;
  addr : Ifaddr.t;
  area : int;
  cost : int;
}
(** An OSPF-speaking interface. *)

val enabled_interfaces : Network.t -> iface list
(** All OSPF-enabled interfaces in the network (router has an [ospf]
    stanza, interface is up, addressed, and covered by a [network]
    statement). *)

val adjacencies : Network.t -> L2.t -> (iface * iface) list
(** Formed adjacencies (each unordered pair listed once, lower router name
    first). *)

val all_routes : Network.t -> L2.t -> (string * Fib.route list) list
(** OSPF candidate routes for every router, computed in one pass (one SPF
    fixpoint shared by all nodes); routers with no routes are omitted. *)
