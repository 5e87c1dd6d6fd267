(** End-to-end workflows: the Current (direct-access) approach and the
    Heimdall approach, instrumented step by step for the Figure-7 pilot
    study.

    Each step reports [human_s] (the deterministic latency model, see
    {!Timing}) and [compute_s] (genuinely measured on this machine). *)

open Heimdall_control
open Heimdall_verify

type step = { label : string; human_s : float; compute_s : float }

val step_total : step -> float

type run = {
  workflow : string;  (** "current" or "heimdall". *)
  issue : string;
  steps : step list;
  resolved : bool;  (** The probe flow works on the resulting network. *)
  denied : int;  (** Monitor denials during the session. *)
  session : Heimdall_twin.Session.t;
  outcome : Heimdall_enforcer.Enforcer.outcome option;
      (** Heimdall only: the enforcer's decision. *)
  final_network : Network.t;
      (** Production after the workflow (unchanged if rejected). *)
}

val total_s : run -> float
val run_to_string : run -> string

val run_current : production:Network.t -> issue:Issue.t -> run
(** Today's workflow: connect with full access, execute the fix script
    directly against production, save.  (The issue is injected before the
    session starts.) *)

(** A ticket ready for its technician: the issue injected into
    production, the twin slice for the ticket's endpoints and the
    Privilege_msp generated over that slice. *)
type prepared = {
  issue : Issue.t;
  broken : Network.t;  (** Production with the issue injected. *)
  slice : string list;  (** The twin's node set. *)
  privilege : Heimdall_privilege.Privilege.t;  (** The ticket's grant. *)
}

val prepare :
  ?strategy:Heimdall_twin.Slicer.strategy ->
  ?obs:Heimdall_obs.Obs.t ->
  production:Network.t ->
  Issue.t ->
  prepared
(** The one place a ticket's grant is built: inject the issue, slice the
    broken network (default {!Heimdall_twin.Slicer.Task}) and generate the
    privilege for the slice.  With [?obs], the slicer's span and gauge. *)

val run_heimdall :
  ?strategy:Heimdall_twin.Slicer.strategy ->
  ?engine:Engine.t ->
  ?obs:Heimdall_obs.Obs.t ->
  ?in_flight:(string * Heimdall_config.Change.t list) list ->
  production:Network.t ->
  policies:Policy.t list ->
  issue:Issue.t ->
  unit ->
  run
(** Heimdall's workflow: generate a Privilege_msp for the ticket, build
    the twin, execute the same fix script inside it, then verify and
    schedule the changes into production.  Right after privilege
    generation a static pre-flight ({!Heimdall_sem.Plan_sem}) proves the
    grant sufficient for the fix script and records the verdict as a
    [plan.preflight] obs event — before any twin boots.

    [?in_flight] forwards concurrent admitted plans to the enforcer's
    conflict mediation stage (see {!Heimdall_enforcer.Enforcer.process});
    a colliding session comes back held, not approved.

    With [?engine] the verification stages share its memoized dataplanes
    and domain pool.  With [?obs] (or an engine carrying one) the whole
    run is a root span named ["session"] with one child span per step,
    and the enforcer chains the root span id into the audit trail.  The
    run's verdicts are byte-identical with or without instrumentation. *)
