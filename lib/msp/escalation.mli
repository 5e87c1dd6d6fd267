(** Privilege escalation (paper §7): a technician's privileges "may need
    to evolve over time, likely escalating from more to less restrictive"
    — e.g. a routing ticket that turns out to need firewall-rule edits.

    The paper leaves "how to differentiate valid escalations from
    malicious attempts" open; this module implements a concrete,
    conservative decision policy an admin can audit:

    - the requested actions must form (a subset of) the repair profile of
      {e some} recognised ticket class — free-form action grab-bags are
      refused;
    - the requested nodes must lie inside the ticket's twin slice (the
      incident cannot legitimately require devices the task never
      touches);
    - destructive ([system.*]) and credential ([secret.set]) actions are
      never granted;
    - escalations that add nothing (already allowed) are refused as
      suspicious noise.

    Every decision is returned with a reason so it can be audited. *)

open Heimdall_control
open Heimdall_privilege

type request = {
  technician : string;
  ticket : Ticket.t;
  actions : string list;  (** Exact action names (no patterns). *)
  nodes : string list;
  justification : string;
}

type decision =
  | Granted of Privilege.predicate
  | Refused of string  (** Human-readable reason. *)

val decide :
  network:Network.t -> slice:string list -> current:Privilege.t -> request -> decision

val grant : Heimdall_twin.Session.t -> Privilege.predicate -> unit
(** Apply a granted escalation to a live session (logged by the
    session's reference monitor). *)
