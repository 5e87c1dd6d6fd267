(** Soundness oracle for the static plan analysis.

    A prepared ticket ({!Heimdall_msp.Workflow.prepare}) is replayed once
    in its twin under the generated grant.  {!Heimdall_sem.Plan_sem} must
    over-approximate that replay: the predicted packet-set delta contains
    the exact post-apply ACL diff, and a grant proven sufficient meets no
    monitor denial and no enforcer privilege rejection. *)

open Heimdall_msp

type replay = {
  prepared : Workflow.prepared;
  emulation : Heimdall_twin.Emulation.t;
  session : Heimdall_twin.Session.t;
  changes : Heimdall_config.Change.t list;  (** The edits extracted from the twin. *)
}

val replay : Workflow.prepared -> replay
(** Build the ticket's twin, open a session under the prepared grant and
    run the issue's fix script in it. *)

val ticket : label:string -> Workflow.prepared -> Heimdall_lint.Plan_lint.ticket
(** The PLAN-lint view of a prepared ticket: grant, slice as scope, fix
    script. *)

type verdict = {
  label : string;
  findings : Heimdall_lint.Diagnostic.t list;  (** PLAN findings. *)
  requirements : Heimdall_sem.Plan_sem.requirement list;  (** Static requirements. *)
  delta_contained : bool;  (** The exact ACL diff lies in the predicted delta. *)
  sufficient : bool;  (** The grant is statically proven sufficient. *)
  denied : int;  (** Commands the twin monitor denied. *)
  rejected : int;
      (** Changes {!Heimdall_enforcer.Verifier.privilege_rejections} rejects. *)
}

val check :
  ?engine:Heimdall_verify.Engine.t ->
  ?policies:Heimdall_verify.Policy.t list ->
  label:string ->
  replay ->
  verdict
(** Judge one replayed ticket.  [label] names it in findings and failure
    messages; [policies] enables PLAN005. *)

val sufficiency_agrees : verdict -> bool
(** Static sufficiency implies no denial and no rejection. *)

val sound : verdict -> bool
(** The delta is contained and sufficiency agrees with the replay. *)

val failures : verdict -> string list
(** One message per broken criterion; [[]] when {!sound}. *)
