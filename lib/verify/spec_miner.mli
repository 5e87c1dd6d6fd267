(** Policy mining from a healthy dataplane — our stand-in for
    config2spec (Birkner et al., NSDI'20), which the paper uses to derive
    network policies from configuration files.

    The miner works at subnet granularity: for every ordered pair of
    host-bearing subnets it traces a representative flow and emits

    - a [Reachable] policy when the flow is delivered (upgraded to a
      [Waypoint] policy when the path crosses a firewall);
    - an [Isolated] policy when the flow is dropped by an explicit ACL
      rule (evidence of intent);
    - nothing when the flow is dropped for any other reason (breakage is
      not intent).

    Optionally, TCP service policies are mined towards designated server
    hosts. *)

open Heimdall_net
open Heimdall_control

type options = {
  mine_icmp : bool;  (** Subnet-to-subnet ICMP policies (default true). *)
  tcp_services : (string * int) list;
      (** [(server_node, port)]: also mine per-subnet TCP policies towards
          these services. *)
}

val host_subnets : Network.t -> (Prefix.t * string list) list
(** Subnets with at least one attached host, with the hosts attached to
    each, sorted by prefix. *)

val mine : ?options:options -> Dataplane.t -> Policy.t list
(** Mine the policy set from the given (assumed healthy) dataplane.
    Deterministic: same dataplane, same policies, stable order. *)
