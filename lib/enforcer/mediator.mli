(** Conflict mediation between concurrent in-flight change plans.

    An MSP serves many tickets at once; two technicians whose plans race
    for the same write slots — or whose predicted packet-set deltas
    intersect on a shared device — must not land concurrently, or the
    later plan's effect depends on whether the earlier one has been
    pushed yet.  Detection is purely static ({!Heimdall_sem.Plan_sem}
    footprints and deltas): nothing executes, so mediation can run at
    submission time, before any twin exists. *)

open Heimdall_config
open Heimdall_control

type ticket = { label : string; changes : Change.t list }

type conflict = {
  first : string;  (** Label of the earlier (admitted) plan. *)
  second : string;  (** Label of the later (held) plan. *)
  shared_footprint : (string * Heimdall_sem.Plan_sem.section) list;
      (** Write slots both plans touch. *)
  overlap : Heimdall_net.Packet_set.t;
      (** Intersection of the plans' predicted deltas on shared devices
          (empty when the conflict is footprint-only). *)
}

type decision = {
  admitted : ticket list;  (** Cleared to proceed, submission order kept. *)
  held : (ticket * conflict) list;
      (** Held tickets with the conflict that blocked each — resubmit
          after the earlier plan lands. *)
}

val mediate : ?network:Network.t -> ticket list -> decision
(** First-come-first-served: walk tickets in submission order, hold any
    that conflicts with an already-admitted one (earliest such conflict
    reported).  Held tickets do not block later submissions. *)

val conflict_to_string : conflict -> string
(** One line, starting with ["plan.conflict"]. *)
