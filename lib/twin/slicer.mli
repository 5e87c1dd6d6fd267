(** Task-driven twin-network slicing (the paper's Figure 5 design space).

    Given the production topology and a ticket's affected endpoints, each
    strategy selects the set of nodes to emulate:

    - [All]: clone everything (Figure 5b) — feasible but maximally exposed;
    - [Neighbor]: affected nodes plus their direct neighbours (Figure 5c)
      — small but often misses the root cause;
    - [Path]: nodes on one shortest path between the endpoints;
    - [Task]: Heimdall's slice — every node on any plausible forwarding
      path between the endpoints (all simple paths within a small slack of
      the shortest), which keeps the root cause reachable while staying
      far from a full clone. *)

open Heimdall_control

type strategy = All | Neighbor | Path | Task

val strategy_to_string : strategy -> string
val strategy_of_string : string -> strategy option

val slice : strategy -> Network.t -> endpoints:string list -> string list
(** Nodes selected by the strategy, sorted.  [endpoints] are the ticket's
    affected nodes (always included when they exist).  Unknown endpoint
    names are ignored. *)

val slice_network : strategy -> Network.t -> endpoints:string list -> Network.t
(** {!slice} then {!Network.restrict}. *)
